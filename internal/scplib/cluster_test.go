package scplib

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// testWorker dials a coordinator with a registry and runs its pump on a
// goroutine; cleanup shuts it down.
func testWorker(t *testing.T, addr string, reg *BodyRegistry) *ClusterWorker {
	t.Helper()
	w, err := DialCluster(addr, 2*time.Second, reg)
	if err != nil {
		t.Fatal(err)
	}
	go w.Run()
	t.Cleanup(w.Shutdown)
	return w
}

// echoRegistry registers an "echo" body: replies to every request with
// the same payload on kind+1, exits on kind 99.
func echoRegistry() *BodyRegistry {
	reg := NewBodyRegistry()
	reg.Register("echo", func(args []byte) (Body, error) {
		return func(env Env) error {
			for {
				m, err := env.Recv()
				if err != nil {
					return err
				}
				if m.Kind == 99 {
					return nil
				}
				if err := env.Send(m.From, m.Kind+1, m.Payload); err != nil {
					return err
				}
			}
		}, nil
	})
	return reg
}

func TestClusterRemoteSpawnAndEcho(t *testing.T) {
	sys, err := NewClusterSystem("", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Serve()
	testWorker(t, sys.Addr(), echoRegistry())
	testWorker(t, sys.Addr(), echoRegistry())

	for deadline := time.Now().Add(2 * time.Second); sys.LiveWorkers() < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("workers never connected: %d live", sys.LiveWorkers())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Spawn one echo thread on each worker node.
	for n := 1; n <= 2; n++ {
		if err := sys.Spawn(ThreadSpec{
			ID: ThreadID(10 + n), Name: "echo", Node: n,
			Remote: &RemoteBody{Kind: "echo"},
		}); err != nil {
			t.Fatalf("remote spawn node %d: %v", n, err)
		}
	}

	// A local driver thread round-trips through both remote echoes and
	// checks per-sender FIFO order of the replies from each.
	done := make(chan error, 1)
	err = sys.Spawn(ThreadSpec{ID: 1, Name: "driver", Body: func(env Env) error {
		const rounds = 50
		for i := 0; i < rounds; i++ {
			payload := []byte{byte(i)}
			if err := env.Send(11, 7, payload); err != nil {
				return err
			}
			if err := env.Send(12, 7, payload); err != nil {
				return err
			}
		}
		got := map[ThreadID]int{}
		for i := 0; i < 2*rounds; i++ {
			m, err := env.RecvTimeout(5)
			if err != nil {
				return err
			}
			if m.Kind != 8 {
				return errors.New("wrong reply kind")
			}
			if int(m.Payload[0]) != got[m.From] {
				return errors.New("per-sender FIFO violated")
			}
			got[m.From]++
		}
		env.Send(11, 99, nil)
		env.Send(12, 99, nil)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	go func() { done <- sys.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cluster run hung")
	}
}

func TestClusterSpawnErrors(t *testing.T) {
	sys, err := NewClusterSystem("", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Serve()
	testWorker(t, sys.Addr(), echoRegistry())
	for deadline := time.Now().Add(2 * time.Second); sys.LiveWorkers() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("worker never connected")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// No RemoteBody on a remote spec.
	if err := sys.Spawn(ThreadSpec{ID: 5, Node: 1, Name: "x"}); !errors.Is(err, ErrNotRemotable) {
		t.Fatalf("want ErrNotRemotable, got %v", err)
	}
	// Node beyond the slot count.
	if err := sys.Spawn(ThreadSpec{ID: 5, Node: 7, Name: "x", Remote: &RemoteBody{Kind: "echo"}}); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("want ErrNoSuchNode, got %v", err)
	}
	// Slot with no connected worker.
	if err := sys.Spawn(ThreadSpec{ID: 5, Node: 2, Name: "x", Remote: &RemoteBody{Kind: "echo"}}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("want ErrNodeDown, got %v", err)
	}
	// Unknown body kind: the worker rejects, the RPC surfaces it.
	if err := sys.Spawn(ThreadSpec{ID: 5, Node: 1, Name: "x", Remote: &RemoteBody{Kind: "nope"}}); err == nil {
		t.Fatal("unknown remote kind accepted")
	}
	// Duplicate ID across the cluster.
	if err := sys.Spawn(ThreadSpec{ID: 6, Node: 1, Name: "a", Remote: &RemoteBody{Kind: "echo"}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Spawn(ThreadSpec{ID: 6, Node: 1, Name: "b", Remote: &RemoteBody{Kind: "echo"}}); !errors.Is(err, ErrDuplicateThread) {
		t.Fatalf("want ErrDuplicateThread, got %v", err)
	}
}

func TestClusterLivenessHooks(t *testing.T) {
	sys, err := NewClusterSystem("", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	var mu sync.Mutex
	var downNodes []int
	var exited []ThreadID
	aliveSeen := make(chan struct{}, 1)
	sys.OnNodeDown = func(n int) { mu.Lock(); downNodes = append(downNodes, n); mu.Unlock() }
	sys.OnThreadExit = func(id ThreadID) { mu.Lock(); exited = append(exited, id); mu.Unlock() }
	sys.OnNodeAlive = func(n int) {
		select {
		case aliveSeen <- struct{}{}:
		default:
		}
	}
	sys.Serve()

	w := testWorker(t, sys.Addr(), echoRegistry())
	for deadline := time.Now().Add(2 * time.Second); sys.LiveWorkers() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("worker never connected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if w.Node() != 1 {
		t.Fatalf("worker got node %d, want 1", w.Node())
	}

	// Worker pings must surface as OnNodeAlive.
	select {
	case <-aliveSeen:
	case <-time.After(2 * time.Second):
		t.Fatal("no OnNodeAlive from worker pings")
	}

	// A remote thread finishing gracefully must surface as OnThreadExit.
	if err := sys.Spawn(ThreadSpec{ID: 20, Node: 1, Name: "echo", Remote: &RemoteBody{Kind: "echo"}}); err != nil {
		t.Fatal(err)
	}
	sys.Start()
	if err := sys.Spawn(ThreadSpec{ID: 2, Name: "stopper", Body: func(env Env) error {
		return env.Send(20, 99, nil)
	}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, id := range exited {
			if id == 20 {
				return true
			}
		}
		return false
	}, "remote thread exit never reported")

	// Severing the connection must surface as OnNodeDown and free the slot.
	w.Shutdown()
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(downNodes) > 0 && downNodes[0] == 1
	}, "node down never reported")
	if sys.LiveWorkers() != 0 {
		t.Fatalf("dead worker still counted live: %d", sys.LiveWorkers())
	}

	// The freed slot must be reusable by a reconnecting worker.
	w2 := testWorker(t, sys.Addr(), echoRegistry())
	waitFor(t, 2*time.Second, func() bool { return sys.LiveWorkers() == 1 }, "reconnect never admitted")
	if w2.Node() != 1 {
		t.Fatalf("reconnect got node %d, want reclaimed slot 1", w2.Node())
	}
}

func TestClusterKillRemoteThread(t *testing.T) {
	sys, err := NewClusterSystem("", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	var mu sync.Mutex
	exited := map[ThreadID]bool{}
	sys.OnThreadExit = func(id ThreadID) { mu.Lock(); exited[id] = true; mu.Unlock() }
	sys.Serve()

	testWorker(t, sys.Addr(), echoRegistry())
	for deadline := time.Now().Add(2 * time.Second); sys.LiveWorkers() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("worker never connected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := sys.Spawn(ThreadSpec{ID: 30, Node: 1, Name: "victim", Remote: &RemoteBody{Kind: "echo"}}); err != nil {
		t.Fatal(err)
	}
	sys.Start()
	if !sys.Kill(30) {
		t.Fatal("Kill on routed remote thread reported false")
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return exited[30]
	}, "killed remote thread exit never reported")
}

func TestClusterCloseIdempotent(t *testing.T) {
	sys, err := NewClusterSystem("", 1)
	if err != nil {
		t.Fatal(err)
	}
	sys.Serve()
	testWorker(t, sys.Addr(), echoRegistry())
	sys.Close()
	sys.Close()
}

func TestClusterRejectsBadHello(t *testing.T) {
	sys, err := NewClusterSystem("", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Serve()
	// A peer speaking the wrong protocol version is dropped without a slot.
	c, err := dialRetry(sys.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var frame [7]byte
	binary.LittleEndian.PutUint32(frame[0:], 3)
	frame[4] = cfHello
	binary.LittleEndian.PutUint16(frame[5:], clusterProtoVersion+1)
	if _, err := c.Write(frame[:]); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(buf); err == nil {
		t.Fatal("coordinator answered a bad hello instead of closing")
	}
	if sys.LiveWorkers() != 0 {
		t.Fatal("bad hello consumed a worker slot")
	}
}

// TestWorkerRunErrorOnSeveredConnection pins the contract the
// fusionworkerd re-dial loop depends on: Run must return a non-nil error
// when the coordinator side severs the connection (the daemon re-dials),
// and nil only after a local Shutdown (the daemon exits).
func TestWorkerRunErrorOnSeveredConnection(t *testing.T) {
	sys, err := NewClusterSystem("", 1)
	if err != nil {
		t.Fatal(err)
	}
	sys.Serve()
	w, err := DialCluster(sys.Addr(), 2*time.Second, echoRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Shutdown()
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run() }()
	waitFor(t, 2*time.Second, func() bool { return sys.LiveWorkers() == 1 }, "worker never connected")

	sys.Close() // coordinator goes away: a transport fault from the worker's view
	select {
	case err := <-runErr:
		if err == nil {
			t.Fatal("Run returned nil after the coordinator severed the connection — the daemon would treat it as orderly shutdown and never re-dial")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run never returned after the connection broke")
	}
}

func TestWorkerRunNilOnShutdown(t *testing.T) {
	sys, err := NewClusterSystem("", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Serve()
	w, err := DialCluster(sys.Addr(), 2*time.Second, echoRegistry())
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run() }()
	waitFor(t, 2*time.Second, func() bool { return sys.LiveWorkers() == 1 }, "worker never connected")

	w.Shutdown()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run after local Shutdown returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run never returned after Shutdown")
	}
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startCluster opens a coordinator with one slot per registry, connects a
// worker for each, and waits until all of them are live.
func startCluster(t *testing.T, regs ...*BodyRegistry) *ClusterSystem {
	t.Helper()
	sys, err := NewClusterSystem("", len(regs))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	sys.Serve()
	for _, reg := range regs {
		testWorker(t, sys.Addr(), reg)
	}
	for deadline := time.Now().Add(2 * time.Second); sys.LiveWorkers() < len(regs); {
		if time.Now().After(deadline) {
			t.Fatalf("workers never connected: %d live", sys.LiveWorkers())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return sys
}

// runWithin runs sys and fails the test if the run errs or outlasts limit.
func runWithin(t *testing.T, sys *ClusterSystem, limit time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- sys.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(limit):
		t.Fatal("cluster run hung")
	}
}

// TestTCPFIFOAndLargePayloads streams 128 KiB messages through a remote
// echo thread: each frame spans several buffered reads and writes on both
// hops of the socket, and the replies must come back whole and in order.
func TestTCPFIFOAndLargePayloads(t *testing.T) {
	sys := startCluster(t, echoRegistry())
	if err := sys.Spawn(ThreadSpec{ID: 11, Name: "echo", Node: 1, Remote: &RemoteBody{Kind: "echo"}}); err != nil {
		t.Fatal(err)
	}
	const n = 40
	payload := make([]byte, 128*1024)
	err := sys.Spawn(ThreadSpec{ID: 1, Name: "src", Body: func(env Env) error {
		for i := 0; i < n; i++ {
			if err := env.Send(11, 1, append([]byte{byte(i)}, payload...)); err != nil {
				return err
			}
		}
		for i := 0; i < n; i++ {
			m, err := env.RecvTimeout(5)
			if err != nil {
				return err
			}
			if len(m.Payload) != 1+len(payload) {
				return fmt.Errorf("payload truncated: %d bytes", len(m.Payload))
			}
			if int(m.Payload[0]) != i {
				return fmt.Errorf("out of order at %d: got %d", i, m.Payload[0])
			}
		}
		return env.Send(11, 99, nil)
	}})
	if err != nil {
		t.Fatal(err)
	}
	runWithin(t, sys, 10*time.Second)
}

// TestTCPDropsToDeadThread sends to a thread that exists nowhere, once
// from a local thread and once from a remote one whose message crosses
// the socket first: both are dropped and counted, neither fails its
// sender.
func TestTCPDropsToDeadThread(t *testing.T) {
	reg := NewBodyRegistry()
	reg.Register("stray", func(args []byte) (Body, error) {
		return func(env Env) error {
			return env.Send(42, 1, []byte("nobody home"))
		}, nil
	})
	sys := startCluster(t, reg)
	if err := sys.Spawn(ThreadSpec{ID: 1, Name: "local", Body: func(env Env) error {
		return env.Send(42, 1, []byte("nobody home"))
	}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Spawn(ThreadSpec{ID: 11, Name: "stray", Node: 1, Remote: &RemoteBody{Kind: "stray"}}); err != nil {
		t.Fatal(err)
	}
	runWithin(t, sys, 10*time.Second)
	// The remote drop is counted when the coordinator dispatches the frame,
	// which may trail the thread's exit report.
	for deadline := time.Now().Add(2 * time.Second); sys.Dropped() < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("dropped = %d, want 2", sys.Dropped())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := sys.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
}
