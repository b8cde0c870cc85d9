package harness

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// TestResultSchemaVersionStamped: BuildResult stamps the current
// schema version and DecodeResult round-trips it.
func TestResultSchemaVersionStamped(t *testing.T) {
	e, ok := ByIDExt("tab1")
	if !ok {
		t.Fatal("tab1 missing")
	}
	tbl, err := e.Run(Options{}.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	r := BuildResult(e, Options{}, tbl)
	if r.SchemaVersion != ResultSchemaVersion {
		t.Fatalf("SchemaVersion = %d, want %d", r.SchemaVersion, ResultSchemaVersion)
	}
	body, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(body)
	if err != nil {
		t.Fatal(err)
	}
	if back.Experiment != r.Experiment || back.Rendered != r.Rendered {
		t.Fatal("round trip lost fields")
	}
}

// TestDecodeResultRejectsMismatch: any other version — including the
// implicit 0 of pre-versioning payloads — fails with the typed error.
func TestDecodeResultRejectsMismatch(t *testing.T) {
	for _, body := range []string{
		`{"experiment":"tab1"}`,                     // no version field
		`{"schema_version":0,"experiment":"tab1"}`,  // explicit zero
		`{"schema_version":99,"experiment":"tab1"}`, // future build
	} {
		_, err := DecodeResult([]byte(body))
		var sme *SchemaMismatchError
		if !errors.As(err, &sme) {
			t.Fatalf("DecodeResult(%s) err = %v, want SchemaMismatchError", body, err)
		}
		if sme.Want != ResultSchemaVersion {
			t.Fatalf("Want = %d", sme.Want)
		}
	}
	if _, err := DecodeResult([]byte("{broken")); err == nil {
		t.Fatal("malformed JSON decoded")
	}
}

// FuzzDecodeResult exercises the decoder the durable store and the
// network feed: it must never panic, and any payload it accepts must
// re-encode and decode to a deep-equal Result. The seed corpus under
// testdata/fuzz holds a real encoded sampled fig12 Result and a
// schema-mismatch payload.
func FuzzDecodeResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResult(data)
		if err != nil {
			return
		}
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := DecodeResult(body)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if !reflect.DeepEqual(r, back) {
			t.Fatalf("round trip changed the result:\n%+v\n%+v", r, back)
		}
	})
}
