package scplib

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

// msgFrame encodes m as a complete cfMsg cluster frame.
func msgFrame(t testing.TB, m *Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeClusterFrame(&buf, cfMsg, encodeMsgBody(m)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	f := func(from, to int32, kind uint16, seq uint64, payload []byte) bool {
		m := &Message{From: ThreadID(from), To: ThreadID(to), Kind: kind, Seq: seq, Payload: payload}
		ftype, body, err := readClusterFrame(bytes.NewReader(msgFrame(t, m)))
		if err != nil || ftype != cfMsg {
			return false
		}
		got, err := decodeMsgBody(body)
		if err != nil {
			return false
		}
		return got.From == m.From && got.To == m.To && got.Kind == m.Kind &&
			got.Seq == m.Seq && bytes.Equal(got.Payload, m.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	// Zero length word: not even a type byte.
	if _, _, err := readClusterFrame(bytes.NewReader([]byte{0, 0, 0, 0, 1, 2, 3})); err == nil {
		t.Fatal("empty frame accepted")
	}
	// A frame whose message body is shorter than the message header.
	var buf bytes.Buffer
	if err := writeClusterFrame(&buf, cfMsg, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	_, body, err := readClusterFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeMsgBody(body); err == nil {
		t.Fatal("undersized message body accepted")
	}
	// Truncated frame.
	frame := msgFrame(t, &Message{From: 1, To: 2, Payload: []byte("xyz")})
	if _, _, err := readClusterFrame(bytes.NewReader(frame[:len(frame)-2])); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// Empty reader.
	if _, _, err := readClusterFrame(bytes.NewReader(nil)); err == nil {
		t.Fatal("EOF not reported")
	}
}

// allocatedBy reports the bytes the heap handed out while fn ran.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestFrameRejectsOversizedLength(t *testing.T) {
	// Length word above maxFramePayload: must fail before allocating.
	var hdr [4]byte
	var err error
	binary.LittleEndian.PutUint32(hdr[:], maxFramePayload+1)
	if grew := allocatedBy(func() { _, _, err = readClusterFrame(bytes.NewReader(hdr[:])) }); grew > 1<<20 {
		t.Fatalf("rejecting an oversized length allocated %d bytes", grew)
	}
	if err == nil {
		t.Fatal("oversized frame length accepted")
	}
	// Exactly at the cap the guard admits the length; the body read then
	// fails on truncation, having allocated for the bytes that arrived,
	// not for the gigabyte the length word claims.
	binary.LittleEndian.PutUint32(hdr[:], maxFramePayload)
	if grew := allocatedBy(func() { _, _, err = readClusterFrame(bytes.NewReader(hdr[:])) }); grew > 2*frameChunk {
		t.Fatalf("a truncated maximal frame allocated %d bytes", grew)
	}
	if err == nil {
		t.Fatal("truncated maximal frame accepted")
	}
}

// FuzzClusterDecoders drives every decoder reachable from the cluster
// listener with arbitrary bytes. Properties: no decoder panics or
// allocates what a length word claims before the bytes arrive, and
// whatever a decoder accepts re-encodes to the bytes it consumed (spawn
// results, whose error text the decoder wraps, keep their thread ID and
// outcome).
func FuzzClusterDecoders(f *testing.F) {
	msg := &Message{From: 3, To: -2, Kind: 7, Seq: 1 << 40, Payload: []byte("payload")}
	f.Add(msgFrame(f, msg))
	f.Add(encodeMsgBody(msg))
	f.Add(encodeSpawn(ThreadSpec{ID: 11, Name: "echo", Remote: &RemoteBody{Kind: "core.worker", Args: []byte{1, 2, 3}}}))
	f.Add(encodeSpawnResult(11, nil))
	f.Add(encodeSpawnResult(11, errors.New("no such body")))
	f.Add([]byte{0xff, 0xff, 0xff, 0x3f, cfMsg})
	f.Fuzz(func(t *testing.T, b []byte) {
		if ftype, body, err := readClusterFrame(bytes.NewReader(b)); err == nil {
			var out bytes.Buffer
			if err := writeClusterFrame(&out, ftype, body); err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(b, out.Bytes()) {
				t.Fatalf("frame re-encodes to %x, read from %x", out.Bytes(), b)
			}
		}
		if m, err := decodeMsgBody(b); err == nil {
			if enc := encodeMsgBody(m); !bytes.Equal(enc, b) {
				t.Fatalf("message body re-encodes to %x, decoded from %x", enc, b)
			}
		}
		if id, name, kind, args, err := decodeSpawn(b); err == nil {
			enc := encodeSpawn(ThreadSpec{ID: id, Name: name, Remote: &RemoteBody{Kind: kind, Args: args}})
			if !bytes.Equal(enc, b) {
				t.Fatalf("spawn re-encodes to %x, decoded from %x", enc, b)
			}
		}
		if len(b) >= 5 {
			id, serr := decodeSpawnResult(b)
			id2, serr2 := decodeSpawnResult(encodeSpawnResult(id, serr))
			if id2 != id || (serr == nil) != (serr2 == nil) {
				t.Fatalf("spawn result (%d, %v) re-decodes as (%d, %v)", id, serr, id2, serr2)
			}
		} else if _, err := decodeSpawnResult(b); err == nil {
			t.Fatalf("%d-byte spawn result accepted", len(b))
		}
	})
}

func TestDialRetryRecoversWithinWindow(t *testing.T) {
	// Reserve a port, release it, and only start listening after a delay:
	// dialRetry must keep retrying past the initial refusals.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	go func() {
		time.Sleep(150 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the dial side will fail the test
		}
		defer ln2.Close()
		c, err := ln2.Accept()
		if err == nil {
			c.Close()
		}
	}()

	c, err := dialRetry(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dialRetry gave up: %v", err)
	}
	c.Close()
}

func TestDialRetryFailsAfterWindow(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing will ever listen here again (probably)

	start := time.Now()
	if _, err := dialRetry(addr, 200*time.Millisecond); err == nil {
		t.Fatal("dialRetry succeeded against a dead address")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("dialRetry overshot its window: %v", elapsed)
	}
}
