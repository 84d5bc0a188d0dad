package main

import (
	"fmt"
	"math"
	"math/rand"

	"streamorca/internal/opapi"
	"streamorca/internal/tuple"
	"streamorca/internal/workload"
)

const (
	// tableSize is the length of the generated input table; tuple i of a
	// run reads row i mod tableSize. The probes time the layers on
	// exactly these rows.
	tableSize = 1 << 16
	numKeys   = 50000
	keySkew   = 1.1
	// maxWidth is the widest the keyed region ever gets (resize cycles
	// go 2 -> 3 -> 2).
	maxWidth = 3
)

// eventSchema is the one tuple schema every workload moves.
var eventSchema = tuple.MustSchema(
	tuple.Attribute{Name: "user", Type: tuple.String},
	tuple.Attribute{Name: "seq", Type: tuple.Int},
	tuple.Attribute{Name: "score", Type: tuple.Float},
	tuple.Attribute{Name: "ts", Type: tuple.Timestamp},
	tuple.Attribute{Name: "sent", Type: tuple.Timestamp},
)

var (
	userRef  = eventSchema.MustRef("user")
	seqRef   = eventSchema.MustRef("seq")
	scoreRef = eventSchema.MustRef("score")
	tsRef    = eventSchema.MustRef("ts")
	sentRef  = eventSchema.MustRef("sent")
)

// inputs is everything the seed decides, generated before any clock
// starts: the key names, and per table row the key drawn and the score.
// The precomputed hashes and partitions are the reference side of the
// output check; the system under test never sees them.
type inputs struct {
	names  []string  // key name by rank
	keyIdx []int32   // row -> key rank
	score  []float64 // row -> payload

	rowHash []uint64 // row -> fnv(name) ^ bits(score), see tupleHash
	// part[w][row] is the replica opapi.PartitionOf routes the row's key
	// to in a region of width w.
	part [maxWidth + 1][]uint8
}

func newInputs(seed int64) *inputs {
	in := &inputs{
		names:   make([]string, numKeys),
		keyIdx:  make([]int32, tableSize),
		score:   make([]float64, tableSize),
		rowHash: make([]uint64, tableSize),
	}
	for k := range in.names {
		in.names[k] = fmt.Sprintf("user%06d", k)
	}
	keys := workload.NewKeyGen(workload.KeyConfig{Seed: seed, N: numKeys, Skew: keySkew})
	payload := rand.New(rand.NewSource(seed + 1))
	for w := 2; w <= maxWidth; w++ {
		in.part[w] = make([]uint8, tableSize)
	}
	for r := 0; r < tableSize; r++ {
		k := keys.NextIndex()
		in.keyIdx[r] = int32(k)
		in.score[r] = payload.Float64() * 100
		in.rowHash[r] = fnv64(in.names[k]) ^ math.Float64bits(in.score[r])
		for w := 2; w <= maxWidth; w++ {
			in.part[w][r] = uint8(opapi.PartitionOf(in.names[k], 0, w))
		}
	}
	return in
}

// fill writes tuple i's seeded attributes; the driver stamps ts and sent.
func (in *inputs) fill(t tuple.Tuple, i int64) {
	r := i & (tableSize - 1)
	userRef.SetStr(t, in.names[in.keyIdx[r]])
	seqRef.SetInt(t, i)
	scoreRef.SetFloat(t, in.score[r])
}

// refHash is what the sink must compute for tuple i.
func (in *inputs) refHash(i int64) uint64 {
	return mix(in.rowHash[i&(tableSize-1)], uint64(i))
}

// fnv64 is FNV-1a over the string's bytes.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix scrambles a tuple's content hash with its sequence number
// (splitmix64 finaliser), so that the wrapping sum over a set of tuples
// identifies the set regardless of arrival order.
func mix(h, seq uint64) uint64 {
	x := h ^ (seq * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// tupleHash is the sink's side of refHash: computed from the attributes
// that arrived, with seq already mapped back to the offered sequence.
func tupleHash(user string, score float64, seq int64) uint64 {
	return mix(fnv64(user)^math.Float64bits(score), uint64(seq))
}
