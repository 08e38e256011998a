package main

import (
	"os"
	"strings"
	"testing"
)

// TestOutput pins the example's printed output byte for byte.
func TestOutput(t *testing.T) {
	want, err := os.ReadFile("testdata/output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("output changed:\n%s\nwant:\n%s", got.String(), want)
	}
}
