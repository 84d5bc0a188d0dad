// Package workload provides the seeded synthetic data generators that
// substitute for the paper's proprietary feeds (Twitter's 10% sample,
// MySpace, stock market data, social profiles). The orchestrator reacts
// to metric trajectories, not raw payloads, so each generator is built to
// reproduce exactly the trajectory its experiment needs: a cause
// distribution that shifts mid-stream (Figure 8), a steady random-walk
// price series (Figure 9), and profile-attribute discovery at known rates
// (Figure 10). All generators are deterministic for a given seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Tweet is one synthetic microblog post about a product.
type Tweet struct {
	User     string
	Text     string
	Product  string
	Negative bool
	Cause    string // complaint cause; empty for positive tweets
}

// TweetConfig parameterises a TweetGen.
type TweetConfig struct {
	Seed    int64
	Product string
	// NegativeRatio is the fraction of tweets with negative sentiment.
	NegativeRatio float64
	// Causes is the complaint-cause vocabulary before the shift.
	Causes []string
	// ShiftAt is the tweet index at which the cause mix changes; 0
	// disables the shift.
	ShiftAt int
	// CausesAfter is the vocabulary after the shift (the "antenna issue"
	// moment of §5.1).
	CausesAfter []string
}

// TweetGen produces a deterministic tweet stream.
type TweetGen struct {
	cfg TweetConfig
	rng *rand.Rand
	n   int
}

// NewTweetGen builds a generator; sensible defaults apply for omitted
// fields.
func NewTweetGen(cfg TweetConfig) *TweetGen {
	if cfg.Product == "" {
		cfg.Product = "phone"
	}
	if cfg.NegativeRatio <= 0 || cfg.NegativeRatio > 1 {
		cfg.NegativeRatio = 0.8
	}
	if len(cfg.Causes) == 0 {
		cfg.Causes = []string{"flash", "screen"}
	}
	return &TweetGen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Next returns the next tweet.
func (g *TweetGen) Next() Tweet {
	i := g.n
	g.n++
	causes := g.cfg.Causes
	if g.cfg.ShiftAt > 0 && i >= g.cfg.ShiftAt && len(g.cfg.CausesAfter) > 0 {
		causes = g.cfg.CausesAfter
	}
	t := Tweet{
		User:    fmt.Sprintf("user%04d", g.rng.Intn(1000)),
		Product: g.cfg.Product,
	}
	if g.rng.Float64() < g.cfg.NegativeRatio {
		t.Negative = true
		t.Cause = causes[g.rng.Intn(len(causes))]
		t.Text = fmt.Sprintf("I hate my %s because of the %s", t.Product, t.Cause)
	} else {
		t.Text = fmt.Sprintf("I love my %s", t.Product)
	}
	return t
}

// Count returns how many tweets have been generated.
func (g *TweetGen) Count() int { return g.n }

// Tick is one synthetic stock trade.
type Tick struct {
	Symbol string
	Price  float64
	Seq    int64
}

// TickConfig parameterises a TickGen.
type TickConfig struct {
	Seed    int64
	Symbols []string
	// Start is the initial price for every symbol (default 100).
	Start float64
	// Step bounds the absolute per-tick random-walk move (default 1).
	Step float64
}

// TickGen produces a deterministic random-walk price stream, round-robin
// across symbols.
type TickGen struct {
	cfg    TickConfig
	rng    *rand.Rand
	prices map[string]float64
	next   int
	seq    int64
}

// NewTickGen builds a tick generator.
func NewTickGen(cfg TickConfig) *TickGen {
	if len(cfg.Symbols) == 0 {
		cfg.Symbols = []string{"IBM"}
	}
	if cfg.Start <= 0 {
		cfg.Start = 100
	}
	if cfg.Step <= 0 {
		cfg.Step = 1
	}
	g := &TickGen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), prices: make(map[string]float64)}
	for _, s := range cfg.Symbols {
		g.prices[s] = cfg.Start
	}
	return g
}

// Next returns the next tick.
func (g *TickGen) Next() Tick {
	sym := g.cfg.Symbols[g.next%len(g.cfg.Symbols)]
	g.next++
	p := g.prices[sym] + (g.rng.Float64()*2-1)*g.cfg.Step
	if p < 1 {
		p = 1
	}
	g.prices[sym] = p
	g.seq++
	return Tick{Symbol: sym, Price: p, Seq: g.seq}
}

// Profile is one synthetic social-media user profile.
type Profile struct {
	User     string
	Source   string
	Negative bool
	HasAge   bool
	HasGen   bool
	HasLoc   bool
}

// ProfileConfig parameterises a ProfileGen.
type ProfileConfig struct {
	Seed   int64
	Source string // e.g. "twitter", "myspace"
	// PAge/PGender/PLocation are the probabilities a profile carries each
	// attribute (defaults 0.5).
	PAge      float64
	PGender   float64
	PLocation float64
}

// ProfileGen produces deterministic profiles.
type ProfileGen struct {
	cfg ProfileConfig
	rng *rand.Rand
	n   int
}

// NewProfileGen builds a profile generator.
func NewProfileGen(cfg ProfileConfig) *ProfileGen {
	if cfg.Source == "" {
		cfg.Source = "twitter"
	}
	if cfg.PAge == 0 {
		cfg.PAge = 0.5
	}
	if cfg.PGender == 0 {
		cfg.PGender = 0.5
	}
	if cfg.PLocation == 0 {
		cfg.PLocation = 0.5
	}
	return &ProfileGen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Next returns the next profile. User names overlap across sources (the
// duplicates §5.3 mentions), which the profile data store deduplicates.
func (g *ProfileGen) Next() Profile {
	g.n++
	return Profile{
		User:     fmt.Sprintf("user%05d", g.rng.Intn(20000)),
		Source:   g.cfg.Source,
		Negative: g.rng.Float64() < 0.7,
		HasAge:   g.rng.Float64() < g.cfg.PAge,
		HasGen:   g.rng.Float64() < g.cfg.PGender,
		HasLoc:   g.rng.Float64() < g.cfg.PLocation,
	}
}

// KeyConfig parameterises a KeyGen.
type KeyConfig struct {
	Seed int64
	// N is the key-space size (default 100000).
	N int
	// Skew is the Zipf exponent s: key rank r (1-based) is drawn with
	// probability proportional to r^-s. 0 means uniform; social-media
	// user activity sits around 1.0–1.2. Unlike math/rand's Zipf, any
	// s >= 0 is valid. Negative values are treated as 0.
	Skew float64
}

// KeyGen draws Zipf-skewed keys for load generation: rank 0 is the
// hottest key, so hot partitions emerge naturally when the keys are
// hash-routed. Sampling inverts the precomputed CDF with a binary
// search, deterministic for a fixed seed.
type KeyGen struct {
	cfg KeyConfig
	rng *rand.Rand
	cdf []float64
}

// NewKeyGen builds a key generator; defaults apply for omitted fields.
func NewKeyGen(cfg KeyConfig) *KeyGen {
	if cfg.N <= 0 {
		cfg.N = 100000
	}
	if cfg.Skew < 0 {
		cfg.Skew = 0
	}
	cdf := make([]float64, cfg.N)
	var total float64
	for i := 0; i < cfg.N; i++ {
		total += math.Pow(float64(i+1), -cfg.Skew)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[cfg.N-1] = 1 // guard against accumulated rounding
	return &KeyGen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), cdf: cdf}
}

// NextIndex draws the next key's rank in [0, N); rank 0 is hottest.
func (g *KeyGen) NextIndex() int {
	return sort.SearchFloat64s(g.cdf, g.rng.Float64())
}

// Next draws the next key name: "user" and the zero-padded rank.
func (g *KeyGen) Next() string {
	return fmt.Sprintf("user%06d", g.NextIndex())
}

// N returns the key-space size after defaulting.
func (g *KeyGen) N() int { return g.cfg.N }

// TopShare returns the expected traffic share of the ceil(frac*N)
// hottest keys — the analytic mass tests and reports compare measured
// concentration against.
func (g *KeyGen) TopShare(frac float64) float64 {
	if frac <= 0 {
		return 0
	}
	k := int(math.Ceil(frac * float64(g.cfg.N)))
	if k >= g.cfg.N {
		return 1
	}
	return g.cdf[k-1]
}
