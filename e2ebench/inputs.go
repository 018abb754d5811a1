package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"eventmatch/internal/event"
	"eventmatch/internal/gen"
	"eventmatch/internal/logio"
)

// synthSeeds are the generator seeds of the batch inputs: the 30-event
// Fig. 11/12 synthetic (3 blocks, 6000 traces). They are pinned because A*
// effort on this workload depends on the sampled traces: over generator
// seeds 1–6 it ranged from 2388 to 5754 expansions, a 2.4× swing that would
// swamp any change a run is meant to show. The workload seed renames every
// event instead, which changes the input bytes, names and ground truth but
// not the search. One seed keeps exact A*'s Workers=1 reference run, about
// 5 s, affordable in every run; seed 2 (2645 expansions) sits inside that
// range.
var synthSeeds = []int64{2}

const (
	synthBlocks = 3
	synthTraces = 6000
	realTraces  = 3000
)

// pairInput is one generated log pair, as the program sees it: two log
// files (or their bytes), the patterns over L1's names and the ground truth.
type pairInput struct {
	Name     string
	L1, L2   []byte
	Patterns []string
	Truth    map[string]string // L1 event name → L2 event name
	L1Path   string
	L2Path   string
}

// subSeed derives the i-th input seed from the workload seed (splitmix64).
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// synthInputs generates the batch inputs for a workload seed and writes each
// pair's logs under dir.
func synthInputs(seed int64, dir string) ([]*pairInput, error) {
	var out []*pairInput
	for i, gs := range synthSeeds {
		g := gen.LargeSynthetic(gs, synthBlocks, synthTraces)
		in, err := encodePair(fmt.Sprintf("synth%d", gs), g, rand.New(rand.NewSource(subSeed(seed, i))))
		if err != nil {
			return nil, err
		}
		in.L1Path = filepath.Join(dir, in.Name+"-l1.log")
		in.L2Path = filepath.Join(dir, in.Name+"-l2.log")
		if err := os.WriteFile(in.L1Path, in.L1, 0o644); err != nil {
			return nil, err
		}
		if err := os.WriteFile(in.L2Path, in.L2, 0o644); err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// realPair generates the i-th real-like (Table 3) pair of a workload seed,
// kept in memory for upload.
func realPair(seed int64, i int) (*pairInput, error) {
	s := subSeed(seed, 1000+i)
	return encodePair(fmt.Sprintf("real%d", i), gen.RealLike(s, realTraces), nil)
}

// encodePair serialises a generated pair in the trace-lines format. With a
// non-nil rng every event of both logs is renamed to a fresh random name of
// the same length; IDs follow first appearance when the logs are read back,
// so renaming leaves the matching problem unchanged.
func encodePair(name string, g *gen.Generated, rng *rand.Rand) (*pairInput, error) {
	l1, l2 := g.L1, g.L2
	var ren1 map[string]string
	if rng != nil {
		used := map[string]bool{}
		l1, ren1 = renamed(l1, rng, used)
		l2, _ = renamed(l2, rng, used)
	}
	in := &pairInput{Name: name, Truth: map[string]string{}}
	for v1, v2 := range g.Truth {
		if v2 == event.None {
			continue
		}
		in.Truth[l1.Alphabet.Name(event.ID(v1))] = l2.Alphabet.Name(v2)
	}
	for _, p := range g.Patterns {
		in.Patterns = append(in.Patterns, renamePattern(p, ren1))
	}
	var b1, b2 bytes.Buffer
	if err := logio.Write(&b1, l1, "log"); err != nil {
		return nil, err
	}
	if err := logio.Write(&b2, l2, "log"); err != nil {
		return nil, err
	}
	// Copies drop the buffers' spare capacity: serve-mixed holds hundreds
	// of pairs.
	in.L1, in.L2 = bytes.Clone(b1.Bytes()), bytes.Clone(b2.Bytes())
	return in, nil
}

const nameChars = "abcdefghijklmnopqrstuvwxyz0123456789"

// renamed returns l with every event renamed to "v" plus random characters,
// keeping each name's length.
func renamed(l *event.Log, rng *rand.Rand, used map[string]bool) (*event.Log, map[string]string) {
	names := l.Alphabet.Names()
	ren := make(map[string]string, len(names))
	fresh := make([]string, len(names))
	for i, old := range names {
		for {
			var b strings.Builder
			b.WriteByte('v')
			for b.Len() < max(len(old), 2) {
				b.WriteByte(nameChars[rng.Intn(len(nameChars))])
			}
			if n := b.String(); !used[n] {
				used[n] = true
				ren[old], fresh[i] = n, n
				break
			}
		}
	}
	return &event.Log{Alphabet: event.NewAlphabet(fresh...), Traces: l.Traces}, ren
}

var identRE = regexp.MustCompile(`[A-Za-z0-9_]+`)

func renamePattern(p string, ren map[string]string) string {
	if ren == nil {
		return p
	}
	return identRE.ReplaceAllStringFunc(p, func(s string) string {
		if n, ok := ren[s]; ok {
			return n
		}
		return s
	})
}

// truthText renders the ground truth in the "NAME1 -> NAME2" line format the
// daemon accepts.
func truthText(truth map[string]string) []byte {
	keys := make([]string, 0, len(truth))
	for k := range truth {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&b, "%s -> %s\n", k, truth[k])
	}
	return b.Bytes()
}
