package worldd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"interpose/internal/apps"
	"interpose/internal/worldd"
)

// FuzzCreateSpec posts arbitrary bytes as a wire spec. No input may
// panic the daemon or earn a 5xx; every created world's journal file,
// if it has one, lies inside the state directory; DELETE closes it; and
// the base's StateHash never moves.
func FuzzCreateSpec(f *testing.F) {
	f.Add([]byte(`{"name":"t"}`))
	f.Add([]byte(`{"name":"m","journal_mem":true,"telemetry":true,"agents":["trace"]}`))
	f.Add([]byte(`{"journal":"a/b"}`))
	f.Add([]byte(`{"restore":"/etc/passwd"}`))

	stateDir := f.TempDir()
	srv, err := worldd.New(worldd.Config{
		Register: apps.Register,
		StateDir: stateDir,
		Health:   worldd.HealthConfig{Disabled: true},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Shutdown(context.Background()) })
	h := srv.Handler()
	want := srv.Base().Kernel().FS().StateHash()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/1.0/worlds", bytes.NewReader(body)))
		switch {
		case rec.Code >= 500:
			t.Fatalf("create: status %d: %s", rec.Code, rec.Body)
		case rec.Code < 200 || rec.Code > 299:
			return
		}
		var info worldd.Info
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || info.ID == "" {
			t.Fatalf("create: status %d, body %q: %v", rec.Code, rec.Body, err)
		}
		w := srv.Current(info.ID)
		if w == nil {
			t.Fatalf("created world %s not in the table", info.ID)
		}
		if jp := w.Spec().JournalPath; jp != "" && filepath.Dir(jp) != stateDir {
			t.Fatalf("journal %q outside the state directory %q", jp, stateDir)
		}

		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/1.0/worlds/"+info.ID, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("delete %s: status %d: %s", info.ID, rec.Code, rec.Body)
		}
		if got := srv.Base().Kernel().FS().StateHash(); got != want {
			t.Fatalf("base StateHash moved: %x -> %x", want, got)
		}
	})
}
