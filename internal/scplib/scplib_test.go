package scplib

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"resilientfusion/internal/simnet"
)

// sysFactory builds a fresh System for the cross-runtime test matrix.
type sysFactory struct {
	name string
	make func() System
}

func factories() []sysFactory {
	return []sysFactory{
		{"real", func() System { return NewRealSystem() }},
		{"sim", func() System {
			x, nodes := NewCluster(4, 0)
			return NewSimSystem(x, x.NewBus(0, 0), nodes, DefaultMsgCost())
		}},
	}
}

func TestPingPongBothRuntimes(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			sys := f.make()
			var got string
			mustSpawn(t, sys, ThreadSpec{ID: 1, Name: "ping", Node: 0, Body: func(env Env) error {
				if err := env.Send(2, 7, []byte("ping")); err != nil {
					return err
				}
				m, err := env.Recv()
				if err != nil {
					return err
				}
				got = string(m.Payload)
				return nil
			}})
			mustSpawn(t, sys, ThreadSpec{ID: 2, Name: "pong", Node: 1, Body: func(env Env) error {
				m, err := env.Recv()
				if err != nil {
					return err
				}
				if m.From != 1 || m.Kind != 7 {
					return fmt.Errorf("bad message %v", m)
				}
				return env.Send(m.From, 8, []byte("pong"))
			}})
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if got != "pong" {
				t.Fatalf("got %q", got)
			}
			if sys.BytesSent() < 2*WireHeaderBytes {
				t.Fatalf("BytesSent = %d", sys.BytesSent())
			}
		})
	}
}

func mustSpawn(t *testing.T, sys System, spec ThreadSpec) {
	t.Helper()
	if err := sys.Spawn(spec); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerSender(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			sys := f.make()
			const n = 50
			var got []uint64
			mustSpawn(t, sys, ThreadSpec{ID: 1, Name: "src", Node: 0, Body: func(env Env) error {
				for i := 0; i < n; i++ {
					if err := env.Send(2, 1, []byte{byte(i)}); err != nil {
						return err
					}
				}
				return nil
			}})
			mustSpawn(t, sys, ThreadSpec{ID: 2, Name: "dst", Node: 1, Body: func(env Env) error {
				for i := 0; i < n; i++ {
					m, err := env.Recv()
					if err != nil {
						return err
					}
					got = append(got, uint64(m.Payload[0]))
				}
				return nil
			}})
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			for i, v := range got {
				if v != uint64(i) {
					t.Fatalf("out of order at %d: %v", i, got[:i+1])
				}
			}
		})
	}
}

func TestRecvMatchStashing(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			sys := f.make()
			var order []uint16
			mustSpawn(t, sys, ThreadSpec{ID: 1, Name: "src", Node: 0, Body: func(env Env) error {
				for _, k := range []uint16{5, 6, 7} {
					if err := env.Send(2, k, nil); err != nil {
						return err
					}
				}
				return nil
			}})
			mustSpawn(t, sys, ThreadSpec{ID: 2, Name: "dst", Node: 1, Body: func(env Env) error {
				// Ask for kind 7 first: kinds 5 and 6 get stashed.
				m, err := env.RecvMatch(func(m *Message) bool { return m.Kind == 7 })
				if err != nil {
					return err
				}
				order = append(order, m.Kind)
				// Plain Recv must now replay the stash in arrival order.
				for i := 0; i < 2; i++ {
					m, err := env.Recv()
					if err != nil {
						return err
					}
					order = append(order, m.Kind)
				}
				return nil
			}})
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			want := []uint16{7, 5, 6}
			for i := range want {
				if order[i] != want[i] {
					t.Fatalf("order = %v", order)
				}
			}
		})
	}
}

func TestRecvTimeout(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			sys := f.make()
			var err1 error
			mustSpawn(t, sys, ThreadSpec{ID: 1, Name: "t", Node: 0, Body: func(env Env) error {
				_, err1 = env.RecvTimeout(0.01)
				return nil
			}})
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if !errors.Is(err1, ErrTimeout) {
				t.Fatalf("err = %v", err1)
			}
		})
	}
}

func TestRecvMatchTimeoutStashesNonMatching(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			sys := f.make()
			var sawTimeout bool
			var stashed uint16
			mustSpawn(t, sys, ThreadSpec{ID: 1, Name: "src", Node: 0, Body: func(env Env) error {
				return env.Send(2, 9, nil)
			}})
			mustSpawn(t, sys, ThreadSpec{ID: 2, Name: "dst", Node: 1, Body: func(env Env) error {
				_, err := env.RecvMatchTimeout(func(m *Message) bool { return m.Kind == 100 }, 0.05)
				sawTimeout = errors.Is(err, ErrTimeout)
				m, err := env.Recv()
				if err != nil {
					return err
				}
				stashed = m.Kind
				return nil
			}})
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if !sawTimeout || stashed != 9 {
				t.Fatalf("sawTimeout=%v stashed=%d", sawTimeout, stashed)
			}
		})
	}
}

func TestKillUnblocksAndDropsSends(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			sys := f.make()
			var victimErr error
			mustSpawn(t, sys, ThreadSpec{ID: 1, Name: "victim", Node: 0, Body: func(env Env) error {
				_, victimErr = env.Recv()
				return victimErr
			}})
			mustSpawn(t, sys, ThreadSpec{ID: 2, Name: "killer", Node: 1, Body: func(env Env) error {
				if _, err := env.RecvTimeout(0.02); !errors.Is(err, ErrTimeout) {
					return fmt.Errorf("warmup: %v", err)
				}
				if !sys.Kill(1) {
					return errors.New("kill failed")
				}
				// Sends to the corpse are dropped, not errors.
				if err := env.Send(1, 1, []byte("too late")); err != nil {
					return err
				}
				return nil
			}})
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if !errors.Is(victimErr, ErrKilled) {
				t.Fatalf("victim err = %v", victimErr)
			}
			if sys.Dropped() == 0 {
				t.Fatal("dropped counter not incremented")
			}
			if sys.Kill(1) {
				t.Fatal("second kill reported true")
			}
			if sys.Kill(99) {
				t.Fatal("kill of unknown thread reported true")
			}
		})
	}
}

func TestSendToUnknownDrops(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			sys := f.make()
			mustSpawn(t, sys, ThreadSpec{ID: 1, Name: "src", Node: 0, Body: func(env Env) error {
				return env.Send(42, 1, nil)
			}})
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if sys.Dropped() != 1 {
				t.Fatalf("dropped = %d", sys.Dropped())
			}
		})
	}
}

func TestDuplicateSpawnRejected(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			sys := f.make()
			body := func(env Env) error { return nil }
			mustSpawn(t, sys, ThreadSpec{ID: 1, Name: "a", Node: 0, Body: body})
			if err := sys.Spawn(ThreadSpec{ID: 1, Name: "b", Node: 0, Body: body}); !errors.Is(err, ErrDuplicateThread) {
				t.Fatalf("err = %v", err)
			}
			if err := sys.Spawn(ThreadSpec{ID: 2, Name: "nil", Node: 0}); err == nil {
				t.Fatal("nil body accepted")
			}
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDynamicSpawnFromRunningThread(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			sys := f.make()
			var childRan bool
			mustSpawn(t, sys, ThreadSpec{ID: 1, Name: "parent", Node: 0, Body: func(env Env) error {
				err := sys.Spawn(ThreadSpec{ID: 2, Name: "child", Node: 1, Body: func(env Env) error {
					childRan = true
					return env.Send(1, 3, nil)
				}})
				if err != nil {
					return err
				}
				_, err = env.Recv()
				return err
			}})
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if !childRan {
				t.Fatal("child did not run")
			}
		})
	}
}

func TestBodyErrorPropagates(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			sys := f.make()
			boom := errors.New("boom")
			mustSpawn(t, sys, ThreadSpec{ID: 1, Name: "bad", Node: 0, Body: func(env Env) error {
				return boom
			}})
			if err := sys.Run(); !errors.Is(err, boom) {
				t.Fatalf("Run err = %v", err)
			}
		})
	}
}

func TestKilledBodyErrorSuppressed(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			sys := f.make()
			mustSpawn(t, sys, ThreadSpec{ID: 1, Name: "victim", Node: 0, Body: func(env Env) error {
				_, err := env.Recv()
				return err
			}})
			mustSpawn(t, sys, ThreadSpec{ID: 2, Name: "killer", Node: 1, Body: func(env Env) error {
				if _, err := env.RecvTimeout(0.01); !errors.Is(err, ErrTimeout) {
					return err
				}
				sys.Kill(1)
				return nil
			}})
			if err := sys.Run(); err != nil {
				t.Fatalf("ErrKilled leaked into Run result: %v", err)
			}
		})
	}
}

// --- Sim-runtime-specific behaviour ---

func TestSimComputeAdvancesVirtualTime(t *testing.T) {
	x, nodes := NewCluster(2, 100) // 100 flops/s
	sys := NewSimSystem(x, x.NewZeroNet(), nodes, MsgCost{})
	var at float64
	mustSpawn(t, sys, ThreadSpec{ID: 1, Name: "w", Node: 0, Body: func(env Env) error {
		if err := env.Compute(500); err != nil {
			return err
		}
		at = env.Now()
		return nil
	}})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5 {
		t.Fatalf("compute finished at %g", at)
	}
}

func TestSimMessageChargesNetworkTime(t *testing.T) {
	x, nodes := NewCluster(2, 1e9)
	bus := x.NewBus(1000, 0.5) // 1000 B/s, 0.5s latency
	sys := NewSimSystem(x, bus, nodes, MsgCost{})
	var at float64
	payload := make([]byte, 1000-WireHeaderBytes) // 1000 wire bytes → 1s
	mustSpawn(t, sys, ThreadSpec{ID: 1, Name: "src", Node: 0, Body: func(env Env) error {
		return env.Send(2, 1, payload)
	}})
	mustSpawn(t, sys, ThreadSpec{ID: 2, Name: "dst", Node: 1, Body: func(env Env) error {
		_, err := env.Recv()
		at = env.Now()
		return err
	}})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if at < 1.49 || at > 1.51 {
		t.Fatalf("message arrived at %g, want 1.5", at)
	}
}

func TestSimDeterministicVirtualTime(t *testing.T) {
	run := func() float64 {
		x, nodes := NewCluster(4, 0)
		sys := NewSimSystem(x, x.NewBus(0, 0), nodes, DefaultMsgCost())
		for i := 0; i < 4; i++ {
			id := ThreadID(i + 10)
			node := i
			mustSpawn(t, sys, ThreadSpec{ID: id, Name: fmt.Sprintf("w%d", i), Node: node, Body: func(env Env) error {
				for j := 0; j < 3; j++ {
					if err := env.Compute(1e6 * float64(node+1)); err != nil {
						return err
					}
					if err := env.Send(ThreadID(10+(node+1)%4), 1, make([]byte, 1024)); err != nil {
						return err
					}
					if _, err := env.Recv(); err != nil {
						return err
					}
				}
				return nil
			}})
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return sys.Now()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("virtual time not deterministic: %g vs %g", a, b)
	}
	if a == 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestSimProcessorSharingAcrossThreads(t *testing.T) {
	// Two threads on the same node take twice as long as one each.
	x, nodes := NewCluster(1, 100)
	sys := NewSimSystem(x, x.NewZeroNet(), nodes, MsgCost{})
	var at1, at2 float64
	mustSpawn(t, sys, ThreadSpec{ID: 1, Name: "a", Node: 0, Body: func(env Env) error {
		err := env.Compute(100)
		at1 = env.Now()
		return err
	}})
	mustSpawn(t, sys, ThreadSpec{ID: 2, Name: "b", Node: 0, Body: func(env Env) error {
		err := env.Compute(100)
		at2 = env.Now()
		return err
	}})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if at1 != 2 || at2 != 2 {
		t.Fatalf("finish times %g, %g, want 2, 2", at1, at2)
	}
}

func TestSimSpawnValidation(t *testing.T) {
	x, nodes := NewCluster(1, 0)
	sys := NewSimSystem(x, x.NewZeroNet(), nodes, MsgCost{})
	err := sys.Spawn(ThreadSpec{ID: 1, Name: "bad", Node: 7, Body: func(env Env) error { return nil }})
	if !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestSimNodeFailureKillsThread(t *testing.T) {
	x, nodes := NewCluster(2, 100)
	sys := NewSimSystem(x, x.NewZeroNet(), nodes, MsgCost{})
	var err1 error
	mustSpawn(t, sys, ThreadSpec{ID: 1, Name: "w", Node: 0, Body: func(env Env) error {
		_, err1 = env.Recv()
		return err1
	}})
	x.Schedule(1, func() { nodes[0].Fail() })
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(err1, ErrKilled) {
		t.Fatalf("thread err = %v", err1)
	}
}

func TestMessageString(t *testing.T) {
	m := &Message{From: 1, To: 2, Kind: 3, Seq: 4, Payload: []byte("abc")}
	if m.String() == "" || m.WireSize() != WireHeaderBytes+3 {
		t.Fatalf("String/WireSize: %q %d", m.String(), m.WireSize())
	}
}

func TestSimLogf(t *testing.T) {
	x, nodes := NewCluster(1, 0)
	sys := NewSimSystem(x, x.NewZeroNet(), nodes, MsgCost{})
	var lines int
	sys.LogTo = func(format string, args ...any) { lines++ }
	mustSpawn(t, sys, ThreadSpec{ID: 1, Name: "w", Node: 0, Body: func(env Env) error {
		env.Logf("hello %d", 1)
		return nil
	}})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if lines != 1 {
		t.Fatalf("lines = %d", lines)
	}
	// Real runtime Logf with no sink must not crash.
	rs := NewRealSystem()
	mustSpawn(t, rs, ThreadSpec{ID: 1, Name: "w", Body: func(env Env) error {
		env.Logf("quiet")
		return nil
	}})
	if err := rs.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSimThreadKilledMidComputeViaSystem(t *testing.T) {
	x, nodes := NewCluster(1, 100)
	sys := NewSimSystem(x, x.NewZeroNet(), nodes, MsgCost{})
	var err1 error
	mustSpawn(t, sys, ThreadSpec{ID: 1, Name: "w", Node: 0, Body: func(env Env) error {
		err1 = env.Compute(1e12)
		return err1
	}})
	x.Schedule(0.5, func() { sys.Kill(1) })
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(err1, ErrKilled) {
		t.Fatalf("err = %v", err1)
	}
	_ = simnet.ErrKilled // document mapping exists
}

// TestRealSystemLifecycle exercises the long-lived Start/Wait path used
// by the service pool: spawn while running, reap finished threads, Stop.
func TestRealSystemLifecycle(t *testing.T) {
	sys := NewRealSystem()
	results := make(chan ThreadID, 8)
	persistent := func(env Env) error {
		for {
			m, err := env.Recv()
			if err != nil {
				return err
			}
			if m.Kind == 99 {
				return nil
			}
		}
	}
	if err := sys.Spawn(ThreadSpec{ID: 1, Name: "worker", Body: persistent}); err != nil {
		t.Fatal(err)
	}
	sys.Start()
	sys.Start() // idempotent

	// Spawn short-lived "job" threads while the system is running; each
	// must be reaped from the thread table on return.
	for i := ThreadID(10); i < 14; i++ {
		id := i
		if err := sys.Spawn(ThreadSpec{ID: id, Name: "job", Body: func(env Env) error {
			results <- env.Self()
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[ThreadID]bool{}
	for len(seen) < 4 {
		seen[<-results] = true
	}
	deadline := time.Now().Add(5 * time.Second)
	for sys.Live() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("finished threads not reaped: %d live", sys.Live())
		}
		time.Sleep(time.Millisecond)
	}

	// A reaped ID can be reused.
	if err := sys.Spawn(ThreadSpec{ID: 10, Name: "job2", Body: func(env Env) error {
		results <- env.Self()
		return nil
	}}); err != nil {
		t.Fatalf("reused reaped ID: %v", err)
	}
	<-results

	sys.Stop()
	if err := sys.Wait(); err != nil {
		t.Fatalf("Wait after Stop: %v", err)
	}
}

// A killed thread still unwinding frees its ID at once: the new thread
// takes over the ID's mailbox routing, and the old thread's reap must not
// unregister it.
func TestRealSpawnReusesKilledID(t *testing.T) {
	sys := NewRealSystem()
	sys.Start()
	release := make(chan struct{})
	exited := make(chan struct{})
	mustSpawn(t, sys, ThreadSpec{ID: 1, Name: "old", Body: func(env Env) error {
		defer close(exited)
		<-release // ignores the kill, like a thread deep in a kernel
		return nil
	}})
	got := make(chan uint16, 1)
	sys.Kill(1)
	mustSpawn(t, sys, ThreadSpec{ID: 1, Name: "new", Body: func(env Env) error {
		m, err := env.Recv()
		if err != nil {
			return err
		}
		got <- m.Kind
		return nil
	}})
	close(release)
	<-exited
	mustSpawn(t, sys, ThreadSpec{ID: 2, Name: "sender", Body: func(env Env) error {
		return env.Send(1, 7, nil)
	}})
	select {
	case k := <-got:
		if k != 7 {
			t.Fatalf("new thread received kind %d", k)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message to the reused ID never arrived")
	}
	if err := sys.Wait(); err != nil {
		t.Fatal(err)
	}
}
