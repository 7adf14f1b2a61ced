package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestReadmeNamesExactlyTheFlags keeps README.md's jsinferd section and
// the binary from drifting apart: every flag the binary registers
// appears there as `-name…`, and every `-name…` the section quotes is a
// flag the binary has.
func TestReadmeNamesExactlyTheFlags(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## jsinferd quickstart\n")
	if !ok {
		t.Fatal("README.md has no \"## jsinferd quickstart\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")

	fs := flag.NewFlagSet("jsinferd", flag.ContinueOnError)
	registerFlags(fs)
	quoted := map[string]bool{}
	for _, m := range regexp.MustCompile("`-([a-z][a-z0-9-]*)").FindAllStringSubmatch(section, -1) {
		quoted[m[1]] = true
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !quoted[f.Name] {
			t.Errorf("README.md's jsinferd section does not mention `-%s`", f.Name)
		}
		delete(quoted, f.Name)
	})
	for name := range quoted {
		t.Errorf("README.md's jsinferd section quotes `-%s`, which jsinferd does not have", name)
	}
}
