package resilient

import (
	"bytes"
	"testing"
)

// Message kinds for FuzzResilientDecoders' dispatch byte, one per
// resilient-layer decoder.
const (
	fuzzApp = iota
	fuzzHeartbeat
	fuzzView
	fuzzSnapshot
	fuzzSnapReq
	fuzzSnapResp
	fuzzWrapperParams
	fuzzKinds
)

func fuzzViewTable() *viewTable {
	return &viewTable{View: 3, Groups: []viewGroup{
		{LID: 0, Members: []viewMember{{Phys: 1, Node: 0, Alive: true}}},
		{LID: 1, Members: []viewMember{{Phys: 2, Node: 1, Alive: true}, {Phys: 3, Node: 2}}},
	}}
}

// FuzzResilientDecoders drives every resilient-layer decoder — the
// messages replicas and the guardian exchange, and the wrapper params a
// coordinator ships in RemoteBody args — with arbitrary bytes.
// Properties: no decoder panics on corrupt input, and anything a decoder
// accepts canonicalizes: re-encoding the decoded value and decoding
// again reproduces the same bytes. The fixed-width app header and
// snapshot requests round-trip exactly.
func FuzzResilientDecoders(f *testing.F) {
	snap := newSnapshot()
	snap.LSeq[0], snap.HighWater[0], snap.PeerEpoch[0] = 4, 9, 1
	snap.LSeq[2], snap.HighWater[2], snap.PeerEpoch[2] = 7, 0, 2
	f.Add(uint8(fuzzApp), encodeApp(1, 1, 3, 42, 2, 1, []byte("payload")))
	f.Add(uint8(fuzzHeartbeat), append(encodeHeartbeat(2, 1), 1))
	f.Add(uint8(fuzzView), encodeView(fuzzViewTable()))
	f.Add(uint8(fuzzSnapshot), encodeSnapshot(snap))
	f.Add(uint8(fuzzSnapReq), encodeSnapReq(1, 17))
	f.Add(uint8(fuzzSnapResp), encodeSnapResp(17, encodeSnapshot(snap)))
	f.Add(uint8(fuzzWrapperParams), encodeWrapperParams(&wrapperParams{
		LID: 1, Name: "worker1", Slot: 1, Monitored: true, GuardianPhys: 1 << 20,
		Epoch: 2, HbPeriod: 0.25, FailTimeout: 1, View: fuzzViewTable(),
		InnerKind: "core.worker", InnerArgs: []byte{1, 2, 3},
	}))
	f.Add(uint8(fuzzView), []byte{})
	f.Add(uint8(fuzzWrapperParams), []byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		// check re-decodes enc1 (the encoding of what data decoded to)
		// and requires the second encoding to match it.
		check := func(enc1 []byte, redecode func([]byte) ([]byte, error)) {
			enc2, err := redecode(enc1)
			if err != nil {
				t.Fatalf("kind %d: re-decoding an encoding failed: %v", kind, err)
			}
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("kind %d: encoding not canonical:\n%x\n%x", kind, enc1, enc2)
			}
		}
		switch kind % fuzzKinds {
		case fuzzApp:
			m, view, epoch, err := decodeApp(data)
			if err != nil {
				return
			}
			enc := encodeApp(m.From, m.Replica, m.Kind, m.LSeq, view, epoch, m.Payload)
			if !bytes.Equal(enc, data) {
				t.Fatalf("app round trip:\n%x\n%x", data, enc)
			}
		case fuzzHeartbeat:
			lid, replica, err := decodeHeartbeat(data)
			if err != nil {
				return
			}
			if enc := encodeHeartbeat(lid, replica); !bytes.Equal(enc, data[:len(enc)]) {
				t.Fatalf("heartbeat round trip:\n%x\n%x", data, enc)
			}
		case fuzzView:
			v, err := decodeView(data)
			if err != nil {
				return
			}
			check(encodeView(v), func(b []byte) ([]byte, error) {
				v, err := decodeView(b)
				if err != nil {
					return nil, err
				}
				return encodeView(v), nil
			})
		case fuzzSnapshot:
			s, err := decodeSnapshot(data)
			if err != nil {
				return
			}
			check(encodeSnapshot(s), func(b []byte) ([]byte, error) {
				s, err := decodeSnapshot(b)
				if err != nil {
					return nil, err
				}
				return encodeSnapshot(s), nil
			})
		case fuzzSnapReq:
			lid, corr, err := decodeSnapReq(data)
			if err != nil {
				return
			}
			if enc := encodeSnapReq(lid, corr); !bytes.Equal(enc, data[:len(enc)]) {
				t.Fatalf("snapreq round trip:\n%x\n%x", data, enc)
			}
		case fuzzSnapResp:
			corr, snap, err := decodeSnapResp(data)
			if err != nil {
				return
			}
			if enc := encodeSnapResp(corr, snap); !bytes.Equal(enc, data) {
				t.Fatalf("snapresp round trip:\n%x\n%x", data, enc)
			}
		case fuzzWrapperParams:
			p, err := decodeWrapperParams(data)
			if err != nil {
				return
			}
			check(encodeWrapperParams(p), func(b []byte) ([]byte, error) {
				p, err := decodeWrapperParams(b)
				if err != nil {
					return nil, err
				}
				return encodeWrapperParams(p), nil
			})
		}
	})
}

// decodeApp aliases the payload instead of copying it: the RMessage is
// its only allocation.
func TestDecodeAppAllocatesOnlyTheMessage(t *testing.T) {
	wire := encodeApp(1, 0, 3, 7, 1, 1, make([]byte, 1<<16))
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, err := decodeApp(wire); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("decodeApp allocates %v times, want 1", allocs)
	}
}
