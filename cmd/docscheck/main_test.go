package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestCheckFormatVersions: against a tree that declares IRTUP003 and
// IRWAL001 (and a magic of another shape, which is not a version), a
// doc naming only IRTUP003 or only older versions beside it passes; one
// naming IRTUP004, or IRTUP002 without IRTUP003, is drift; a magic the
// source does not declare is not checked. The tree declares replication
// protocol 2: a doc's `proto = 2` passes, `proto = 1` is drift.
func TestCheckFormatVersions(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/storage/magic.go", `package storage
var tupleMagic = [8]byte{'I', 'R', 'T', 'U', 'P', '0', '0', '3'}
var listMagic = [8]byte{'I', 'R', 'L', 'S', 'T', '0', '1', 0}
`)
	write("internal/wal/wal.go", "package wal\nvar logMagic = [8]byte{'I', 'R', 'W', 'A', 'L', '0', '0', '1'}\n")
	write("internal/replication/replication.go", "package replication\nconst ProtoVersion = 2\n")
	write("internal/replication/old_test.go", "package replication\nconst ProtoVersion = 7\n")
	write("internal/storage/old_test.go", "package storage\nvar old = [8]byte{'I', 'R', 'C', 'R', 'C', '0', '0', '9'}\n")
	write("README.md", "Tuple files are `IRTUP003`; `IRTUP001` and `IRTUP002` are refused. IRLST01 and IRCRC007 are not declared.\n")
	write("docs/ok.md", "The log is IRWAL001. A hello says `proto = 2`.\n")
	write("docs/oldproto.md", "The follower sends `proto = 1`.\n")
	write("docs/newer.md", "Logs are IRWAL001.\nTuples are IRTUP003 now, IRTUP004 soon.\n")
	write("docs/stale.md", "Tuple files are IRTUP002.\n")

	got, err := checkFormatVersions(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join(root, "docs", "newer.md") + ":2: format IRTUP004 is newer than the source's IRTUP003",
		filepath.Join(root, "docs", "oldproto.md") + ":1: proto = 1, but the source's replication.ProtoVersion is 2",
		filepath.Join(root, "docs", "stale.md") + ": names versions of IRTUP but not the current IRTUP003",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("problems:\n  %q\nwant\n  %q", got, want)
	}
}
