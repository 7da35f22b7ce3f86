package main

import (
	"fmt"
	"strings"

	"sti"
)

// printExplanation prints the derivation of a tuple given as `path(1,3)` or
// `Violation("exec")`. The fields go to the root package verbatim, which
// parses them by attribute type with the fact-file conventions.
func printExplanation(res *sti.Result, spec string) error {
	open := strings.IndexByte(spec, '(')
	if open < 0 || !strings.HasSuffix(spec, ")") {
		return fmt.Errorf("bad tuple spec %q (want name(v1,...,vn))", spec)
	}
	proof, err := res.ExplainText(strings.TrimSpace(spec[:open]), splitFields(spec[open+1:len(spec)-1]))
	if err != nil {
		return err
	}
	fmt.Print(proof)
	return nil
}

// splitFields splits a spec body on the commas outside double-quoted
// symbols (a backslash escapes the next character inside quotes) and trims
// blanks around each field. An empty body is a nullary tuple.
func splitFields(body string) []string {
	if strings.TrimSpace(body) == "" {
		return nil
	}
	var fields []string
	start, quoted := 0, false
	for i := 0; i < len(body); i++ {
		switch c := body[i]; {
		case quoted && c == '\\':
			i++
		case c == '"':
			quoted = !quoted
		case c == ',' && !quoted:
			fields = append(fields, strings.TrimSpace(body[start:i]))
			start = i + 1
		}
	}
	return append(fields, strings.TrimSpace(body[start:]))
}
