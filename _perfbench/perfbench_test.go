package main

import (
	"testing"
	"time"

	"roia/internal/rtf/proto"
	"roia/internal/rtf/transport"
)

// small shrinks every workload so a test run takes well under a second.
func small(w workload) workload {
	w.users = 10 * w.replicas
	w.npcs = min(w.npcs, 50)
	w.world = 150
	return w
}

// TestRunIsRepeatable builds each workload twice with one seed: both runs
// must pass the output check and receive the same bytes, and another seed
// must receive different ones.
func TestRunIsRepeatable(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			digest := func(seed int64) string {
				r, err := newRig(w, seed, newTracer(w.replicas), true)
				if err != nil {
					t.Fatal(err)
				}
				r.sample = &frameSample{limit: sampleLimit}
				win, err := measureAndCheck(r, 0)
				if err != nil {
					t.Fatal(err)
				}
				if win.failed() != 0 || win.applied != win.due {
					t.Fatalf("%d of %d operations failed, %d of %d updates applied", win.failed(), win.attempted(), win.applied, win.due)
				}
				if _, _, err := win.sample.protoCost(1); err != nil {
					t.Fatal(err)
				}
				return win.digest
			}
			a, b, c := digest(1), digest(1), digest(2)
			if a != b {
				t.Errorf("seed 1 received %s, then %s", a, b)
			}
			if a == c {
				t.Errorf("seeds 1 and 2 both received %s", a)
			}
		})
	}
}

// TestFeedHoldsPeerRounds checks the lockstep feed: a replica gets exactly
// the peer's oldest complete round, then its users' frames, and frames of
// a later peer round wait for the next tick.
func TestFeedHoldsPeerRounds(t *testing.T) {
	net := transport.NewLoopback()
	defer net.Close()
	attach := func(id string) transport.Node {
		n, err := net.Attach(id, 16)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	users, peer := attach("r1"), attach("r1-link")
	user, remote := attach("u1"), attach("r2-link")
	node := newServerNode("r1", users, peer, "r2", 16, probe{})

	fwd := proto.Registry.EncodeToBytes(&proto.Forwarded{Actor: 1, Target: 2})
	shadow := proto.Registry.EncodeToBytes(&proto.ShadowUpdate{Tick: 1})
	input := proto.Registry.EncodeToBytes(&proto.Input{Seq: 1})
	for _, p := range [][]byte{fwd, shadow, fwd} {
		if err := remote.Send("r1-link", p); err != nil {
			t.Fatal(err)
		}
	}
	if err := user.Send("r1", input); err != nil {
		t.Fatal(err)
	}
	if _, err := node.awaitPeerRound(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := node.feed(true); err != nil {
		t.Fatal(err)
	}
	want := []string{"r2-link", "r2-link", "u1"}
	for i, from := range want {
		f := <-node.inbox
		if f.From != from {
			t.Fatalf("frame %d from %s, want %s", i, f.From, from)
		}
	}
	if len(node.inbox) != 0 || len(node.held) != 1 || node.batches != 0 {
		t.Fatalf("after feed: %d queued, %d held, %d complete rounds; want 0, 1, 0", len(node.inbox), len(node.held), node.batches)
	}
	if err := node.feed(true); err == nil {
		t.Fatal("feed without a complete peer round succeeded")
	}
}
