package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"resilientfusion/internal/core"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/scene"
)

func postCube(t *testing.T, client *http.Client, url string, cube *hsi.Cube) *http.Response {
	t.Helper()
	var body bytes.Buffer
	if _, err := cube.WriteTo(&body); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJob(t *testing.T, resp *http.Response) jobJSON {
	t.Helper()
	defer resp.Body.Close()
	var out jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHTTPEndToEnd drives the full service over HTTP: submit, poll to
// completion, fetch the composite image, verify stats and the cache path.
func TestHTTPEndToEnd(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()

	cube := testCube(t, 21)
	resp := postCube(t, srv.Client(), srv.URL+"/v1/jobs?threshold=0.05&granularity=3", cube)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	job := decodeJob(t, resp)
	if job.ID == "" {
		t.Fatal("no job id")
	}

	deadline := time.Now().Add(15 * time.Second)
	for job.State != StateDone && job.State != StateFailed {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", job.State)
		}
		time.Sleep(5 * time.Millisecond)
		r, err := srv.Client().Get(srv.URL + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("status %d", r.StatusCode)
		}
		job = decodeJob(t, r)
	}
	if job.State != StateDone {
		t.Fatalf("job failed: %s", job.Error)
	}
	if job.Result == nil || job.Result.UniqueSetSize == 0 {
		t.Fatalf("missing result summary: %+v", job.Result)
	}
	if job.Result.ImagePNG != "" {
		t.Error("image returned without ?image=1")
	}
	if job.Result.PhaseTimes.Total <= 0 {
		t.Errorf("phase times not populated: %+v", job.Result.PhaseTimes)
	}

	// Fetch the composite.
	r, err := srv.Client().Get(srv.URL + "/v1/jobs/" + job.ID + "?image=1")
	if err != nil {
		t.Fatal(err)
	}
	withImg := decodeJob(t, r)
	raw, err := base64.StdEncoding.DecodeString(withImg.Result.ImagePNG)
	if err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if b := img.Bounds(); b.Dx() != cube.Width || b.Dy() != cube.Height {
		t.Errorf("composite %dx%d, cube %dx%d", b.Dx(), b.Dy(), cube.Width, cube.Height)
	}

	// Same cube + options again: served from cache at submit time.
	resp = postCube(t, srv.Client(), srv.URL+"/v1/jobs?threshold=0.05&granularity=3", cube)
	repeat := decodeJob(t, resp)
	if repeat.State != StateDone || !repeat.CacheHit {
		t.Errorf("repeat submit: state=%s cache_hit=%v", repeat.State, repeat.CacheHit)
	}

	// Stats reflect the traffic.
	r, err = srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var stats Stats
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Submitted != 2 || stats.Completed != 2 || stats.CacheHits != 1 {
		t.Errorf("stats: %+v", stats)
	}
	if stats.Workers != 2 {
		t.Errorf("stats workers = %d", stats.Workers)
	}
}

// TestHTTPBadRequests covers the error surface.
func TestHTTPBadRequests(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()

	// Garbage cube body.
	resp, err := srv.Client().Post(srv.URL+"/v1/jobs", "application/octet-stream",
		strings.NewReader("not a cube"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage cube status %d", resp.StatusCode)
	}

	// Bad option value.
	resp = postCube(t, srv.Client(), srv.URL+"/v1/jobs?granularity=abc", testCube(t, 2))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad option status %d", resp.StatusCode)
	}

	// Unknown option keys are rejected, not silently defaulted: a typo
	// like granularty=8 must not run a different computation than asked.
	// Same for a known knob with an empty value (a lost shell variable).
	for _, q := range []string{"granularty=8", "treshold=0.05", "granularity=3&foo=1", "granularity=", "threshold=", "granularity=2&granularity=16"} {
		resp = postCube(t, srv.Client(), srv.URL+"/v1/jobs?"+q, testCube(t, 2))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("unknown option %q status %d, want 400", q, resp.StatusCode)
		}
	}

	// Unknown job.
	r, err := srv.Client().Get(srv.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d", r.StatusCode)
	}
}

// TestHTTPNaNThreshold pins the edge validation: NaN parses as a float
// but must be rejected before it reaches the screening kernel.
func TestHTTPNaNThreshold(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()

	for _, v := range []string{"NaN", "+Inf", "-Inf"} {
		resp := postCube(t, srv.Client(), srv.URL+"/v1/jobs?threshold="+v, testCube(t, 2))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("threshold=%s status %d, want 400", v, resp.StatusCode)
		}
	}
}

// TestHTTPOversizedUpload distinguishes 413 (too large) from 400 (bad
// cube) by shrinking the upload limit below a valid cube's size.
func TestHTTPOversizedUpload(t *testing.T) {
	old := maxCubeBytes
	maxCubeBytes = 64
	defer func() { maxCubeBytes = old }()

	pool, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()

	resp := postCube(t, srv.Client(), srv.URL+"/v1/jobs", testCube(t, 2))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload status %d, want 413", resp.StatusCode)
	}
}

// TestHTTPUploadOverrun rejects a v1 body carrying bytes past the
// geometry its HSIC header claims, so the digest hashed while decoding
// always covers the whole upload.
func TestHTTPUploadOverrun(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()

	var body bytes.Buffer
	if _, err := testCube(t, 2).WriteTo(&body); err != nil {
		t.Fatal(err)
	}
	body.WriteByte(0)
	resp, err := srv.Client().Post(srv.URL+"/v1/jobs", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(out.Error, "overruns") {
		t.Fatalf("overrun upload: status %d error %q, want 400 overrun", resp.StatusCode, out.Error)
	}
	if s := pool.Stats(); s.Submitted != 0 {
		t.Errorf("overrun upload admitted %d jobs", s.Submitted)
	}
}

// TestHTTPUploadDigestKeysLikeSubmit: the digest an upload is hashed to
// while it decodes keys the cache exactly as Pool.Submit's Cube.Digest
// does, on both API versions.
func TestHTTPUploadDigestKeysLikeSubmit(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()

	cube := testCube(t, 5)
	st, err := pool.Submit(cube, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	if job := decodeJob(t, postCube(t, srv.Client(), srv.URL+"/v1/jobs", cube)); !job.CacheHit {
		t.Errorf("v1 upload of a submitted cube missed the cache: %+v", job)
	}
	if job := decodeJob(t, postCubeV2(t, srv.Client(), srv.URL+"/v2/jobs", cube, "")); !job.CacheHit {
		t.Errorf("v2 upload of a submitted cube missed the cache: %+v", job)
	}
}

// TestHTTPExpiredImage maps an aged-out composite to 410 Gone, not 500.
func TestHTTPExpiredImage(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, RetainResults: 1, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()

	var first string
	for i := 0; i < 3; i++ {
		st, err := pool.Submit(testCube(t, int64(80+i)), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = st.ID
		}
		if _, err := pool.Wait(st.ID); err != nil {
			t.Fatal(err)
		}
	}
	r, err := srv.Client().Get(srv.URL + "/v1/jobs/" + first + "?image=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusGone {
		t.Errorf("expired image status %d, want 410", r.StatusCode)
	}
	// Without ?image=1 the job still reads fine.
	r, err = srv.Client().Get(srv.URL + "/v1/jobs/" + first)
	if err != nil {
		t.Fatal(err)
	}
	job := decodeJob(t, r)
	if job.State != StateDone || job.Result == nil {
		t.Errorf("scalar status after expiry: %+v", job)
	}
}

// TestV1ServerFaultsAre500 pins v1's error policy for server-side
// failures: a journal or catalog that cannot be written, or a spool that
// cannot be read or written, answers 500 with v1's bare {"error": "..."}
// body — never a 4xx telling the client its request was wrong — and the
// already-registered scene stays listed.
func TestV1ServerFaultsAre500(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(t *testing.T, p *Pool, sceneID string)
		do    func(t *testing.T, client *http.Client, base, sceneID string) *http.Response
	}{
		{
			name:  "remove scene, catalog unwritable",
			fault: func(_ *testing.T, p *Pool, _ string) { p.catalog.Close() },
			do: func(t *testing.T, client *http.Client, base, id string) *http.Response {
				r, err := client.Do(mustReq(t, http.MethodDelete, base+"/v1/scenes/"+id))
				if err != nil {
					t.Fatal(err)
				}
				return r
			},
		},
		{
			name:  "submit cube, journal unwritable",
			fault: func(_ *testing.T, p *Pool, _ string) { p.journal.Close() },
			do: func(t *testing.T, client *http.Client, base, _ string) *http.Response {
				return postCube(t, client, base+"/v1/jobs", testCube(t, 3))
			},
		},
		{
			name:  "fuse scene, journal unwritable",
			fault: func(_ *testing.T, p *Pool, _ string) { p.journal.Close() },
			do:    postFuse,
		},
		{
			name: "fuse scene, spool payload unreadable",
			fault: func(t *testing.T, p *Pool, id string) {
				if err := os.Remove(filepath.Join(p.spoolDir, id+".raw")); err != nil {
					t.Fatal(err)
				}
			},
			do: postFuse,
		},
		{
			name:  "register scene, catalog unwritable",
			fault: func(_ *testing.T, p *Pool, _ string) { p.catalog.Close() },
			do:    postSmallScene,
		},
		{
			name: "register scene, spool unwritable",
			fault: func(t *testing.T, p *Pool, _ string) {
				if err := os.RemoveAll(p.spoolDir); err != nil {
					t.Fatal(err)
				}
			},
			do: postSmallScene,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool, err := NewPool(durableConfig(t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			srv := httptest.NewServer(pool.Handler())
			defer srv.Close()
			client := srv.Client()

			hdr, data := enviPayload(t, testCube(t, 62), scene.BIP)
			info, err := pool.RegisterScene(hdr, bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			tc.fault(t, pool, info.ID)

			resp := tc.do(t, client, srv.URL, info.ID)
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("status %d, want 500 (body %s)", resp.StatusCode, body)
			}
			var bare map[string]string
			if err := json.Unmarshal(body, &bare); err != nil || len(bare) != 1 || bare["error"] == "" {
				t.Fatalf("body %s is not v1's bare {\"error\": \"...\"} (%v)", body, err)
			}

			r, err := client.Get(srv.URL + "/v1/scenes")
			if err != nil {
				t.Fatal(err)
			}
			var listing struct{ Scenes []SceneInfo }
			err = json.NewDecoder(r.Body).Decode(&listing)
			r.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(listing.Scenes) != 1 || listing.Scenes[0].ID != info.ID {
				t.Fatalf("scene listing after the fault: %+v, want only %s", listing.Scenes, info.ID)
			}
		})
	}
}

func postFuse(t *testing.T, client *http.Client, base, sceneID string) *http.Response {
	t.Helper()
	r, err := client.Post(base+"/v1/scenes/"+sceneID+"/fuse?threshold=0.05", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func postSmallScene(t *testing.T, client *http.Client, base, _ string) *http.Response {
	t.Helper()
	hdr, data := enviPayload(t, hsi.MustNewCube(4, 4, 2), scene.BIL)
	return postScene(t, client, base+"/v1/scenes", hdr, data)
}
