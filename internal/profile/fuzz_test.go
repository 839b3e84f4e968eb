package profile

import (
	"bytes"
	"testing"
)

// FuzzLoad: every -profile file either fails to load or yields a valid
// profile that survives a Save/Load round trip unchanged, fingerprint
// included. Load must never panic, whatever the bytes.
func FuzzLoad(f *testing.F) {
	for _, name := range Names() {
		p, err := Lookup(name)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Save(&buf, p); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("loaded profile fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := Save(&buf, p); err != nil {
			t.Fatalf("loaded profile does not save: %v", err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("saved profile does not reload: %v", err)
		}
		if again != p || again.Fingerprint() != p.Fingerprint() {
			t.Errorf("round trip changed the profile:\n%+v\n%+v", p, again)
		}
	})
}
