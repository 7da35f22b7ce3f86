package btree

// LessWords exposes lessWords to the external tests, which compare it with
// the Cmp of the engine's own word keys (relation.Tup1..Tup16).
func LessWords[K any](a, b *K) bool { return lessWords(a, b) }

// IsWordKey exposes isWordKey to the external tests.
func IsWordKey[K Key[K]]() bool { return isWordKey[K]() }
