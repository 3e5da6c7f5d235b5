package svc

import (
	"fmt"
	"strconv"
	"strings"
)

// Canonical renders the graph in a collision-free canonical form: every
// vertex label length-prefixed in vertex order, then every edge as an index
// pair. Unlike String (a display format that drops isolated vertices when
// edges exist), two graphs share a Canonical form iff they have identical
// vertex and edge lists, which is what cache keys need. It is rendered on the
// stack and costs the one allocation of the string (forms longer than
// canonicalStackBytes spill to the heap on the way).
//
//hfc:hotpath budget=1
func (g *Graph) Canonical() string {
	var stack [canonicalStackBytes]byte
	return string(g.AppendCanonical(stack[:0]))
}

// AppendCanonical appends the Canonical form to buf. It is the one
// definition of the format; Fingerprint and HasCanonical are checked against
// it (FuzzGraphFrontMatter). The six appends are its whole budget: they grow
// buf only when the caller's capacity runs out — Canonical's and
// HasCanonical's is on the stack.
//
//hfc:hotpath budget=6
func (g *Graph) AppendCanonical(buf []byte) []byte {
	for _, s := range g.Services {
		buf = strconv.AppendInt(buf, int64(len(s)), 10)
		buf = append(buf, ':')
		buf = append(buf, s...)
		buf = append(buf, ';')
	}
	buf = append(buf, '|')
	for _, e := range g.Edges {
		buf = strconv.AppendInt(buf, int64(e[0]), 10)
		buf = append(buf, '>')
		buf = strconv.AppendInt(buf, int64(e[1]), 10)
		buf = append(buf, ';')
	}
	return buf
}

// canonicalStackBytes is the buffer Canonical and HasCanonical render into
// without touching the heap; a 10-service chain over the "s0".."s39" catalogue
// renders to under 100 bytes.
const canonicalStackBytes = 256

// HasCanonical reports whether canonical is g's Canonical form, without
// rendering a string: it is the fingerprint-collision guard of the route
// cache, through its fresh and its stale-tolerant door alike, run on every
// cache hit. Forms longer than canonicalStackBytes spill to the heap with
// the same answer.
//
//hfc:hotpath budget=0
func (g *Graph) HasCanonical(canonical string) bool {
	var stack [canonicalStackBytes]byte
	//hfcvet:ignore hotalloc the compiler compares string(b) == s in place, without converting
	return string(g.AppendCanonical(stack[:0])) == canonical
}

// FNV-1a 64 (hash/fnv's New64a parameters), inlined so hashing neither
// allocates a hasher nor needs the bytes in one place.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// fnvInt folds v's decimal rendering — what AppendCanonical writes — into h.
func fnvInt(h uint64, v int) uint64 {
	var digits [20]byte // len("-9223372036854775808")
	for _, c := range strconv.AppendInt(digits[:0], int64(v), 10) {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// Fingerprint hashes the canonical form (FNV-1a, 64-bit) into a compact
// cache-key component, piece by piece without materialising it:
// g.Fingerprint() == FingerprintCanonical(g.Canonical()). Collisions are
// possible in principle; consumers must fall back to comparing canonical
// forms (HasCanonical) before trusting a match.
//
//hfc:hotpath budget=0
func (g *Graph) Fingerprint() uint64 {
	h := uint64(fnvOffset64)
	for _, s := range g.Services {
		h = fnvInt(h, len(s))
		h = (h ^ ':') * fnvPrime64
		h = fnvString(h, string(s))
		h = (h ^ ';') * fnvPrime64
	}
	h = (h ^ '|') * fnvPrime64
	for _, e := range g.Edges {
		h = fnvInt(h, e[0])
		h = (h ^ '>') * fnvPrime64
		h = fnvInt(h, e[1])
		h = (h ^ ';') * fnvPrime64
	}
	return h
}

// FingerprintCanonical hashes an already-rendered Canonical form, for
// callers that hold the string anyway.
func FingerprintCanonical(canonical string) uint64 {
	return fnvString(fnvOffset64, canonical)
}

// MaskBit is s's bit in a 64-bit service mask: the top six bits of the FNV-1a
// hash of its name after one xor-shift-multiply round (FNV-1a alone barely
// mixes a name's last bytes into its high bits: "s0" … "s39" would share two;
// with the round they take 32). Distinct services may share a bit, so a mask
// over-approximates the set of services it summarises, never under-.
func (s Service) MaskBit() uint64 {
	h := fnvString(fnvOffset64, string(s))
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return 1 << (h >> 58)
}

// CanonicalServiceMask is the union of the MaskBits of the services a
// Canonical form names, read from the form without building the graph. A
// string that is not a sequence of length-prefixed names ending at the '|'
// gets every bit.
func CanonicalServiceMask(canonical string) uint64 {
	const all = ^uint64(0)
	var mask uint64
	s := canonical
	for len(s) == 0 || s[0] != '|' {
		n, i := 0, 0
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			if n = n*10 + int(s[i]-'0'); n > len(s) {
				return all
			}
		}
		// Digits, ':', n bytes of name, ';'.
		if i == 0 || i+n+1 >= len(s) || s[i] != ':' || s[i+n+1] != ';' {
			return all
		}
		mask |= Service(s[i+1 : i+1+n]).MaskBit()
		s = s[i+n+2:]
	}
	return mask
}

// ParseGraph parses the String rendering of a service graph back into a
// Graph: comma-separated tokens, each either a single service name or an
// "a->b->c" dependency chain. Vertices are numbered by first occurrence;
// duplicate edges collapse. The result is validated, so cycles, empty names
// and other structural faults fail here rather than later.
//
//	"a->b, a->c"  two edges out of a
//	"a"           single isolated service
//	"a,b"         two isolated services (only when no edges appear at all)
func ParseGraph(s string) (*Graph, error) {
	g := &Graph{}
	index := make(map[Service]int)
	vertex := func(name string) (int, error) {
		name = strings.TrimSpace(name)
		if name == "" {
			return 0, fmt.Errorf("svc: empty service name in %q", s)
		}
		sv := Service(name)
		if i, ok := index[sv]; ok {
			return i, nil
		}
		i := len(g.Services)
		index[sv] = i
		g.Services = append(g.Services, sv)
		return i, nil
	}
	seenEdge := make(map[[2]int]bool)
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			return nil, fmt.Errorf("svc: empty token in %q", s)
		}
		parts := strings.Split(tok, "->")
		prev := -1
		for _, p := range parts {
			v, err := vertex(p)
			if err != nil {
				return nil, err
			}
			if prev != -1 {
				e := [2]int{prev, v}
				if !seenEdge[e] {
					seenEdge[e] = true
					g.Edges = append(g.Edges, e)
				}
			}
			prev = v
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
