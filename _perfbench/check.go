package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"roia/internal/rtf/aoi"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/proto"
	"roia/internal/rtf/server"
	"roia/internal/rtf/wire"
)

// checkWorlds is the output check. After the final tick and poll, every
// user's view (Client.World) must equal, field for field, the entities
// that the reference Euclidean algorithm finds around the user's avatar in
// the state of the user's replica, read through Server.Entity; and the
// avatar's own record must equal the replica's.
func (r *rig) checkWorlds() error {
	ids := make([]entity.ID, 0, len(r.clients)+len(r.npcs))
	for _, c := range r.clients {
		ids = append(ids, c.c.Avatar())
	}
	ids = append(ids, r.npcs...)
	slices.Sort(ids)
	ref := aoi.NewEuclid(server.DefaultAOIRadius)
	for ri, rep := range r.reps {
		world := make([]*entity.Entity, 0, len(ids))
		byID := make(map[entity.ID]*entity.Entity, len(ids))
		for _, id := range ids {
			e, ok := rep.srv.Entity(id)
			if !ok {
				return fmt.Errorf("output check: replica %s lost entity %d", rep.srv.ID(), id)
			}
			world = append(world, &e)
			byID[id] = &e
		}
		for _, c := range r.clients {
			if c.rep != ri {
				continue
			}
			if !c.c.Joined() {
				return fmt.Errorf("output check: %s is no longer joined", c.c.ID())
			}
			self := byID[c.c.Avatar()]
			if last := c.c.LastUpdate(); last == nil || last.Self != *self {
				return fmt.Errorf("output check: %s holds a stale record of its own avatar %d", c.c.ID(), self.ID)
			}
			want := ref.Visible(nil, self.ID, self.Pos, world)
			got := c.c.World()
			if len(got) != len(want) {
				return fmt.Errorf("output check: %s sees %d entities, the reference finds %d", c.c.ID(), len(got), len(want))
			}
			for i, id := range want {
				if got[i] != *byID[id] {
					return fmt.Errorf("output check: %s holds %+v, replica %s has %+v", c.c.ID(), got[i], rep.srv.ID(), *byID[id])
				}
			}
		}
	}
	return nil
}

// digest condenses every byte the users received (since set-up, through
// the first digestIters measured iterations) into one hex string.
func (r *rig) digest() string {
	h := sha256.New()
	var b [8]byte
	for _, c := range r.clients {
		io.WriteString(h, c.c.ID())
		binary.BigEndian.PutUint64(b[:], uint64(c.node.frames))
		h.Write(b[:])
		binary.BigEndian.PutUint64(b[:], uint64(c.node.bytes))
		h.Write(b[:])
		binary.BigEndian.PutUint32(b[:4], c.node.crc)
		h.Write(b[:4])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digestBook records, per build of the benchmark, workload and seed, the
// work digest of the first run, and rejects a later run whose digest
// differs: that run did different work.
type digestBook struct {
	path string
	key  string
}

func newDigestBook(dir, workload string, seed int64) (*digestBook, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("digest book: %w", err)
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return nil, fmt.Errorf("digest book: %w", err)
	}
	sum := sha256.Sum256(data)
	return &digestBook{
		path: filepath.Join(dir, "digests.json"),
		key:  fmt.Sprintf("%s/%d/%s", workload, seed, hex.EncodeToString(sum[:8])),
	}, nil
}

// check compares digest with the recorded one, recording it if new.
func (b *digestBook) check(digest string) error {
	book := map[string]string{}
	data, err := os.ReadFile(b.path)
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return fmt.Errorf("digest book: %w", err)
	default:
		if err := json.Unmarshal(data, &book); err != nil {
			return fmt.Errorf("digest book %s: %w", b.path, err)
		}
	}
	if prev, ok := book[b.key]; ok {
		if prev != digest {
			return fmt.Errorf("work digest %s differs from %s recorded by an earlier run of this build and seed", digest, prev)
		}
		return nil
	}
	book[b.key] = digest
	out, err := json.MarshalIndent(book, "", "  ")
	if err != nil {
		return fmt.Errorf("digest book: %w", err)
	}
	tmp := b.path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return fmt.Errorf("digest book: %w", err)
	}
	return os.Rename(tmp, b.path)
}

// frameSample keeps copies of the frames replicas sent and received on
// sampled ticks, for replay through the protocol codec.
type frameSample struct {
	frames [][]byte
	bytes  int
	limit  int
}

func (s *frameSample) add(p []byte) {
	if s.bytes+len(p) > s.limit || len(p) < 2 {
		return
	}
	s.frames = append(s.frames, bytes.Clone(p))
	s.bytes += len(p)
}

// protoCost replays the sample through proto.Registry.Decode and Encode and
// returns the median over passes of decode and encode nanoseconds per
// payload byte. Re-encoding a decoded frame must reproduce it exactly.
func (s *frameSample) protoCost(passes int) (decNS, encNS float64, err error) {
	if s.bytes == 0 {
		return 0, 0, errors.New("proto replay: empty sample")
	}
	msgs := make([]wire.Message, len(s.frames))
	w := wire.NewWriter(64 << 10)
	var dec, enc []float64
	for pass := 0; pass < passes; pass++ {
		t0 := time.Now()
		for i, f := range s.frames {
			m, err := proto.Registry.Decode(f)
			if err != nil {
				return 0, 0, fmt.Errorf("proto replay: %w", err)
			}
			msgs[i] = m
		}
		t1 := time.Now()
		for _, m := range msgs {
			proto.Registry.Encode(w, m)
		}
		t2 := time.Now()
		dec = append(dec, float64(t1.Sub(t0))/float64(s.bytes))
		enc = append(enc, float64(t2.Sub(t1))/float64(s.bytes))
	}
	for i, m := range msgs {
		if out := proto.Registry.Encode(w, m); !bytes.Equal(out, s.frames[i]) {
			return 0, 0, fmt.Errorf("proto replay: frame %d (kind %d) does not re-encode to its own bytes", i, frameKind(s.frames[i]))
		}
	}
	return median(dec), median(enc), nil
}
