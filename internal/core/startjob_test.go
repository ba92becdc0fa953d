package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"resilientfusion/internal/hsi"
	"resilientfusion/internal/perfmodel"
	"resilientfusion/internal/resilient"
	"resilientfusion/internal/scplib"
)

// startedRealSystem returns a running goroutine-backed system that is
// stopped when the test ends.
func startedRealSystem(t *testing.T) *scplib.RealSystem {
	t.Helper()
	sys := scplib.NewRealSystem()
	sys.Start()
	t.Cleanup(func() {
		sys.Stop()
		sys.Wait()
	})
	return sys
}

// panicSource panics on every tile request.
type panicSource struct{ CubeSource }

func (panicSource) Tile(hsi.RowRange) (*hsi.Cube, error) { panic("tile source exploded") }

// A panic in the manager protocol must fail the job, not hand Wait an
// incomplete result with a nil error.
func TestStartJobManagerPanicFails(t *testing.T) {
	sys := startedRealSystem(t)
	opts := Options{Workers: 2, Threshold: 0.05}
	job, err := StartJob(sys, panicSource{MemSource(testScene(t))}, opts, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err == nil {
		t.Fatalf("manager panic reported success: %+v", res)
	}
	if !strings.Contains(err.Error(), "tile source exploded") {
		t.Fatalf("error does not carry the panic: %v", err)
	}
}

// In-process jobs without regeneration run unmonitored workers: a
// RealSystem has no transport pings, so a worker busy for longer than
// FailTimeout must not be declared failed.
func TestStartJobInProcessHasNoHeartbeatDeadline(t *testing.T) {
	cube := testScene(t)
	opts := Options{
		Workers: 2, Threshold: 0.05, Regenerate: false,
		HeartbeatPeriod: 0.01, FailTimeout: 0.05,
	}
	want, err := Sequential(cube, opts)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	observed := 0
	// The observer runs on the worker thread after each request, so the
	// sleep stands in for a kernel that outlasts FailTimeout.
	slow := func(kind uint16, seconds float64) {
		time.Sleep(80 * time.Millisecond)
		mu.Lock()
		observed++
		mu.Unlock()
	}
	sys := startedRealSystem(t)
	job, err := StartJob(sys, MemSource(cube), opts, 1<<20, slow)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !imagesEqual(res.Image, want.Image) {
		t.Fatal("composite differs from sequential")
	}
	if d := job.Runtime().Stats().Detections; d != 0 {
		t.Fatalf("%d detections on an in-process job", d)
	}
	mu.Lock()
	defer mu.Unlock()
	if observed == 0 {
		t.Fatal("stage observer never ran")
	}
}

// fakeEnv is a scripted resilient.REnv: receives pop from in (then
// report a kill), sends are recorded.
type fakeEnv struct {
	in   []*resilient.RMessage
	sent []*resilient.RMessage
}

func (e *fakeEnv) Self() resilient.LogicalID { return 1 }
func (e *fakeEnv) Replica() int              { return 0 }
func (e *fakeEnv) Now() float64              { return 0 }
func (e *fakeEnv) Send(to resilient.LogicalID, kind uint16, payload []byte) error {
	e.sent = append(e.sent, &resilient.RMessage{From: to, Kind: kind, Payload: payload})
	return nil
}
func (e *fakeEnv) Recv() (*resilient.RMessage, error) {
	if len(e.in) == 0 {
		return nil, resilient.ErrKilled
	}
	m := e.in[0]
	e.in = e.in[1:]
	return m, nil
}
func (e *fakeEnv) RecvTimeout(float64) (*resilient.RMessage, error) { return e.Recv() }
func (e *fakeEnv) RecvMatch(func(*resilient.RMessage) bool) (*resilient.RMessage, error) {
	return e.Recv()
}
func (e *fakeEnv) RecvMatchTimeout(func(*resilient.RMessage) bool, float64) (*resilient.RMessage, error) {
	return e.Recv()
}
func (e *fakeEnv) Compute(float64) error { return nil }
func (e *fakeEnv) Logf(string, ...any)   {}

// A worker that cannot serve a request reports it to the manager and
// exits cleanly instead of failing its thread.
func TestWorkerBodyReportsWorkerErr(t *testing.T) {
	env := &fakeEnv{in: []*resilient.RMessage{{From: ManagerID, Kind: KindScreenReq, Payload: []byte{1, 2, 3}}}}
	body := workerBody(ManagerID, "pct", 0.05, 1, perfmodel.Default(), nil)
	if err := body(env); err != nil {
		t.Fatalf("worker body returned %v", err)
	}
	if len(env.sent) != 1 || env.sent[0].From != ManagerID || env.sent[0].Kind != KindWorkerErr {
		t.Fatalf("sent %+v, want one KindWorkerErr to the manager", env.sent)
	}
	if _, err := DecodeScreenReq([]byte{1, 2, 3}); err == nil || string(env.sent[0].Payload) != err.Error() {
		t.Fatalf("KindWorkerErr payload %q does not carry the decode error", env.sent[0].Payload)
	}
}

// A manager receiving KindWorkerErr fails the job with the worker's text
// at once, not after its reissue timeouts.
func TestManagerFailsFastOnWorkerErr(t *testing.T) {
	sys := startedRealSystem(t)
	rt, err := resilient.New(sys, resilient.Config{Nodes: 2, Replication: 1, PhysBase: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	failing := func(env resilient.REnv) error {
		if _, err := env.Recv(); err != nil {
			return err
		}
		return env.Send(ManagerID, KindWorkerErr, []byte("kernel exploded"))
	}
	if err := rt.AddSingleton(1, "worker1", 1, failing); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	opts := Options{Workers: 1, Threshold: 0.05, RequestTimeout: 30}
	mgr := func(env resilient.REnv) error {
		defer rt.Shutdown()
		errc <- RunManagerSource(env, MemSource(testScene(t)), opts, &Result{})
		return nil
	}
	if err := rt.AddSingleton(ManagerID, "manager", 0, mgr); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "kernel exploded") {
			t.Fatalf("manager error = %v, want the worker's text", err)
		}
		if errors.Is(err, resilient.ErrTimeout) {
			t.Fatalf("manager timed out instead of failing fast: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("manager did not fail within 5s of a 30s RequestTimeout")
	}
}
