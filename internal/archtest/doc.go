// Package archtest holds the repository's architecture rules: the "one X"
// decisions of the design (one engine configuration, one RAM pass set, one
// deletion algorithm, ...), the import boundaries between its layers, and
// the relation.EpochGuard contract that every snapshot handle is released.
// The rules are a table of rows in rows_test.go, so `go test ./...` checks
// them on every run:
//
//	go test ./internal/archtest
//
// Each row parses the module's Go files with go/parser and matches code,
// never comments: a comment may name a deleted symbol. Files under
// perfbench/ (its own module), gen/, bin/ and testdata/ are not the
// product and are skipped; only the epoch-guard row also reads test files
// and perfbench/.
//
// To add a row, append it to rows with three parts:
//   - the rationale, as the comment above the row: which decision it holds
//     and who the named exceptions are;
//   - the check, usually forbid(pattern, scope) over the code tokens the
//     package renders (identifiers, qualified names, calls, composite
//     literal types, assignments, case-clause types, string literals);
//   - at least one negative fixture: an in-memory source tree the check
//     must reject, with a substring of each finding it must report.
package archtest
