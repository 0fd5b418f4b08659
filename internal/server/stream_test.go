package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"regiongrow"
)

func postStream(t *testing.T, ts *httptest.Server, query string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs?stream=1"+query, "image/x-portable-graymap", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestJobStreamPGMRoundTrip pipes an upload through the streaming path and
// checks the chunked PGM response is byte-identical to recolouring the
// sequential engine's result, with the region count in the trailer.
func TestJobStreamPGMRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	im, pgm := paperPGM(t, regiongrow.Image3Circles128)

	resp := postStream(t, ts, "", pgm)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/x-portable-graymap" {
		t.Errorf("Content-Type = %q", ct)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "bypass" {
		t.Errorf("X-Cache = %q, want bypass (the streaming path never touches the cache)", xc)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	seg, err := segmentLocal(im, regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := regiongrow.WritePGM(&want, regiongrow.Recolour(seg, im)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("streamed PGM differs from the sequential engine's recoloured output")
	}
	// Trailers surface after the body is drained.
	if tr := resp.Trailer.Get("X-Final-Regions"); tr != "11" {
		t.Errorf("X-Final-Regions trailer = %q, want 11", tr)
	}
}

// TestJobStreamLabels checks labels=1 streams the raw label raster in the
// RGLS wire format, byte-identical to encoding the sequential result.
func TestJobStreamLabels(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	im, pgm := paperPGM(t, regiongrow.Image1NestedRects128)

	resp := postStream(t, ts, "&labels=1&tie=smallest-id", pgm)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	seg, err := segmentLocal(im, regiongrow.Config{Threshold: 10, Tie: regiongrow.SmallestIDTie, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := regiongrow.EncodeLabels(&want, seg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("streamed labels differ from the sequential engine's")
	}
}

// TestJobStreamWithoutTempDir: the streaming path writes no temp file,
// so a daemon whose temp directory is missing still streams the bytes
// its /v1/segment?format=pgm path renders.
func TestJobStreamWithoutTempDir(t *testing.T) {
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	_, ts := newTestServer(t, Options{})
	_, pgm := paperPGM(t, regiongrow.Image3Circles128)

	body := func(resp *http.Response) []byte {
		t.Helper()
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		return b
	}
	if !bytes.Equal(body(postStream(t, ts, "", pgm)), body(postSegment(t, ts, "?format=pgm", pgm))) {
		t.Error("streamed PGM differs from /v1/segment?format=pgm")
	}
}

// TestJobStreamBypassesBodyLimit uploads a PGM bigger than MaxBodyBytes:
// the job path must reject it, the streaming path must segment it.
func TestJobStreamBypassesBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBodyBytes: 1 << 10})
	_, pgm := paperPGM(t, regiongrow.Image4NestedRects256) // 64KiB raster

	resp, err := http.Post(ts.URL+"/v1/jobs", "image/x-portable-graymap", bytes.NewReader(pgm))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("job path status %d, want 413 under the 1KiB limit", resp.StatusCode)
	}

	resp = postStream(t, ts, "", pgm)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream path status %d: %s", resp.StatusCode, body)
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
}

// TestJobStreamRejections pins the parameter surface: no engines, no
// paper-image names, no JSON, and a malformed body fails cleanly before
// the response commits.
func TestJobStreamRejections(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	_, pgm := paperPGM(t, regiongrow.Image3Circles128)

	for _, tc := range []struct {
		query string
		body  []byte
		want  string
	}{
		{"&engine=native", pgm, "streaming engine"},
		{"&image=image1", nil, "uploaded PGM body"},
		{"&format=json", pgm, "not JSON"},
		{"", []byte("P5\n2 2\n255\nab"), "pixmap"},
	} {
		resp := postStream(t, ts, tc.query, tc.body)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: status %d, want 400", tc.query, resp.StatusCode)
			continue
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("%q: error %q does not mention %q", tc.query, body, tc.want)
		}
	}
}
