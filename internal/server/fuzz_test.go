package server

import (
	"bytes"
	"net/url"
	"testing"
)

// FuzzParseSegmentValues feeds raw query strings to the submission
// parser. It must never panic, and every query it accepts must yield a
// Config that Config.Check passes, so the server's own range checks can
// never admit a config the engines refuse. The query string doubles as a
// server instance name: ParseJobInstance must recover every non-empty
// instance from the job IDs newJobID mints for it.
func FuzzParseSegmentValues(f *testing.F) {
	for _, seed := range []string{
		"",
		"image=image3",
		"engine=native&tie=smallest-id&threshold=0&seed=7&maxsquare=-1&format=pgm&labels=1",
		"engine=cm5-lp&tie=LARGEST-ID&threshold=300&maxsquare=64",
		"threshold=-1",
		"threshold=%2B5&maxsquare=-2",
		"tie=bogus&seed=-1",
		"seed=18446744073709551616",
		"format=xml&engine=dist",
		"backend-1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // keeps every valid pair, as URL.Query does
		if p, err := ParseSegmentValues(q); err == nil {
			if err := p.Config.Check(); err != nil {
				t.Fatalf("accepted %q as %+v, which the engines refuse: %v", raw, p.Config, err)
			}
		}
		if raw == "" {
			return
		}
		if inst, ok := ParseJobInstance(newJobID(raw)); !ok || inst != raw {
			t.Fatalf("ParseJobInstance(newJobID(%q)) = %q, %v", raw, inst, ok)
		}
	})
}

// FuzzBatchManifest feeds raw request bodies to DecodeBatchManifest and
// every item it decodes to ParseBatchItem. Neither may panic, and every
// item ParseBatchItem accepts must yield a Config that Config.Check
// passes.
func FuzzBatchManifest(f *testing.F) {
	for _, seed := range []string{
		`{"items":[{"image":"image1"}]}`,
		`{"items":[{"image":"image3","engine":"native","threshold":0,"tie":"largest-id","seed":9,"maxsquare":-1,"labels":true}]}`,
		`{"items":[{"image":"image2","threshold":-4},{"image":"image9"},{"image":"image6","maxsquare":-3},{"engine":"cm2-8k"}]}`,
		`{"items":[{"image":"image5","tie":"coin","seed":18446744073709551615}]}`,
		`{"items":[]}`,
		`{"items":[{"image":"image1","colour":1}]}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := DecodeBatchManifest(bytes.NewReader(body))
		if err != nil {
			return
		}
		for i, item := range m.Items {
			if p, _, err := ParseBatchItem(item); err == nil {
				if err := p.Config.Check(); err != nil {
					t.Fatalf("item %d %+v accepted as %+v, which the engines refuse: %v", i, item, p.Config, err)
				}
			}
		}
	})
}
