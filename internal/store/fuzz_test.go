package store

import (
	"encoding/json"
	"os"
	"testing"
)

// FuzzDirGet: whatever bytes sit at a key's entry file, Get never
// panics, and anything it returns as a hit is a valid answer for that
// key.
func FuzzDirGet(f *testing.F) {
	key := testKey("gemm")
	valid, err := json.Marshal(testDoc(key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	d, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(d.Path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if doc, ok := d.Get(key); ok && !doc.Valid(key) {
			t.Errorf("Get served an invalid document: %+v", doc)
		}
	})
}
