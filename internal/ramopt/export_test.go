package ramopt

// PruneIndexes runs the index-pruning pass alone, for the package's own
// unit tests; the exported API selects no single pass.
var PruneIndexes = pruneIndexes
