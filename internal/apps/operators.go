package apps

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"streamorca/internal/extjob"
	"streamorca/internal/opapi"
	"streamorca/internal/tuple"
	"streamorca/internal/workload"
)

// segmentAttributes are the profile attributes SegmentSource segments
// by; shared between the operator model and Open's BindEnum so the two
// can never diverge.
var segmentAttributes = []string{"age", "gender", "location"}

// Application-specific operator kinds registered by this package.
const (
	KindTweetSource   = "TweetSource"
	KindSentiment     = "SentimentClassifier"
	KindCauseMatcher  = "CauseMatcher"
	KindTickSource    = "TickSource"
	KindProfileSource = "ProfileSource"
	KindProfileEnrich = "ProfileEnricher"
	KindSegmentSource = "SegmentSource"
)

// Custom metric names published by this package's operators. Adaptation
// routines subscribe to these by name, so producers and consumers share
// one constant per metric instead of re-spelling the string.
const (
	// MetricTweetsClassified counts tweets the sentiment classifier
	// has labelled.
	MetricTweetsClassified = "nTweetsClassified"
	// MetricTotalKnownCauses / MetricTotalUnknownCauses are the cause
	// matcher's cumulative counters (§5.1).
	MetricTotalKnownCauses   = "totalKnownCauses"
	MetricTotalUnknownCauses = "totalUnknownCauses"
	// MetricRecentKnownCauses / MetricRecentUnknownCauses are the cause
	// matcher's sliding-window gauges the recompute policy watches.
	MetricRecentKnownCauses   = "recentKnownCauses"
	MetricRecentUnknownCauses = "recentUnknownCauses"
	// MetricProfilesWith* count profiles the enricher discovered with
	// each attribute (§5.3); the composition policy aggregates them.
	MetricProfilesWithAge      = "profilesWithAge"
	MetricProfilesWithGender   = "profilesWithGender"
	MetricProfilesWithLocation = "profilesWithLocation"
)

func init() {
	opapi.Default.RegisterOp(KindTweetSource, func() opapi.Operator { return &tweetSource{} }, &opapi.OpModel{
		Doc: "emits synthetic tweets from the workload generator",
		Outputs: opapi.ExactlyPorts(1).WithAttrs(
			tuple.Attribute{Name: "user", Type: tuple.String},
			tuple.Attribute{Name: "text", Type: tuple.String},
			tuple.Attribute{Name: "product", Type: tuple.String},
			tuple.Attribute{Name: "negative", Type: tuple.Bool},
		),
		Params: []opapi.ParamSpec{
			{Name: "product", Type: opapi.ParamString, Default: "phone", Doc: "product the tweets mention"},
			{Name: "seed", Type: opapi.ParamInt, Default: "1", Doc: "generator seed"},
			{Name: "count", Type: opapi.ParamInt, Default: "0", Min: opapi.Bound(0), Doc: "tweets to emit; 0 = unbounded"},
			{Name: "period", Type: opapi.ParamDuration, Default: "0", Min: opapi.Bound(0), Doc: "inter-tweet delay"},
			{Name: "negRatio", Type: opapi.ParamFloat, Default: "0.8", Min: opapi.Bound(0), Max: opapi.Bound(1), Doc: "fraction of negative tweets"},
			{Name: "causes", Type: opapi.ParamString, Doc: "csv cause vocabulary before the shift"},
			{Name: "shiftAt", Type: opapi.ParamInt, Default: "0", Min: opapi.Bound(0), Doc: "tweet index where the cause mix changes"},
			{Name: "causesAfter", Type: opapi.ParamString, Doc: "csv cause vocabulary after the shift"},
		},
	})
	opapi.Default.RegisterOp(KindSentiment, func() opapi.Operator { return &sentimentClassifier{} }, &opapi.OpModel{
		Doc: "derives sentiment from tweet text",
		Inputs: opapi.ExactlyPorts(1).WithAttrs(
			tuple.Attribute{Name: "text", Type: tuple.String},
			tuple.Attribute{Name: "negative", Type: tuple.Bool},
		),
		Outputs: opapi.ExactlyPorts(1),
	})
	opapi.Default.RegisterOp(KindCauseMatcher, func() opapi.Operator { return &causeMatcher{} }, &opapi.OpModel{
		Doc: "correlates negative tweets with the known-cause model",
		Inputs: opapi.ExactlyPorts(1).WithAttrs(
			tuple.Attribute{Name: "negative", Type: tuple.Bool},
			tuple.Attribute{Name: "text", Type: tuple.String},
			tuple.Attribute{Name: "user", Type: tuple.String},
		),
		Outputs: opapi.ExactlyPorts(1).WithAttrs(
			tuple.Attribute{Name: "user", Type: tuple.String},
			tuple.Attribute{Name: "cause", Type: tuple.String},
			tuple.Attribute{Name: "known", Type: tuple.Bool},
		),
		Params: []opapi.ParamSpec{
			{Name: "modelId", Type: opapi.ParamString, Required: true, Doc: "shared cause model id"},
			{Name: "storeId", Type: opapi.ParamString, Required: true, Doc: "shared negative-tweet corpus id"},
			{Name: "recentWindow", Type: opapi.ParamInt, Default: "200", Min: opapi.Bound(0), Doc: "sliding window of recent matches"},
		},
	})
	opapi.Default.RegisterOp(KindTickSource, func() opapi.Operator { return &tickSource{} }, &opapi.OpModel{
		Doc: "emits synthetic stock trades",
		Outputs: opapi.ExactlyPorts(1).WithAttrs(
			tuple.Attribute{Name: "sym", Type: tuple.String},
			tuple.Attribute{Name: "price", Type: tuple.Float},
			tuple.Attribute{Name: "seq", Type: tuple.Int},
		),
		Params: []opapi.ParamSpec{
			{Name: "symbols", Type: opapi.ParamString, Doc: "csv stock symbols"},
			{Name: "seed", Type: opapi.ParamInt, Default: "1", Doc: "generator seed"},
			{Name: "count", Type: opapi.ParamInt, Default: "0", Min: opapi.Bound(0), Doc: "ticks to emit; 0 = unbounded"},
			{Name: "period", Type: opapi.ParamDuration, Default: "0", Min: opapi.Bound(0), Doc: "inter-tick delay"},
			{Name: "start", Type: opapi.ParamFloat, Default: "100", Doc: "starting price"},
			{Name: "step", Type: opapi.ParamFloat, Default: "1", Doc: "random-walk step size"},
		},
	})
	opapi.Default.RegisterOp(KindProfileSource, func() opapi.Operator { return &profileSource{} }, &opapi.OpModel{
		Doc:     "emits synthetic social-media profiles",
		Outputs: opapi.ExactlyPorts(1).WithAttrs(profileAttrs()...),
		Params: []opapi.ParamSpec{
			{Name: "source", Type: opapi.ParamString, Default: "twitter", Doc: "social-media site name"},
			{Name: "seed", Type: opapi.ParamInt, Default: "1", Doc: "generator seed"},
			{Name: "count", Type: opapi.ParamInt, Default: "0", Min: opapi.Bound(0), Doc: "profiles to emit; 0 = unbounded"},
			{Name: "period", Type: opapi.ParamDuration, Default: "0", Min: opapi.Bound(0), Doc: "inter-profile delay"},
			{Name: "pAge", Type: opapi.ParamFloat, Default: "0.5", Min: opapi.Bound(0), Max: opapi.Bound(1), Doc: "probability a profile carries an age"},
			{Name: "pGen", Type: opapi.ParamFloat, Default: "0.5", Min: opapi.Bound(0), Max: opapi.Bound(1), Doc: "probability a profile carries a gender"},
			{Name: "pLoc", Type: opapi.ParamFloat, Default: "0.5", Min: opapi.Bound(0), Max: opapi.Bound(1), Doc: "probability a profile carries a location"},
		},
	})
	opapi.Default.RegisterOp(KindProfileEnrich, func() opapi.Operator { return &profileEnricher{} }, &opapi.OpModel{
		Doc:    "enriches profiles into the shared data store with per-attribute metrics",
		Inputs: opapi.ExactlyPorts(1).WithAttrs(profileAttrs()...),
		Params: []opapi.ParamSpec{
			{Name: "storeId", Type: opapi.ParamString, Required: true, Doc: "shared profile store id"},
		},
	})
	opapi.Default.RegisterOp(KindSegmentSource, func() opapi.Operator { return &segmentSource{} }, &opapi.OpModel{
		Doc: "correlates stored profiles with sentiment for one attribute, then finishes",
		Outputs: opapi.ExactlyPorts(1).WithAttrs(
			tuple.Attribute{Name: "attribute", Type: tuple.String},
			tuple.Attribute{Name: "group", Type: tuple.String},
			tuple.Attribute{Name: "count", Type: tuple.Int},
		),
		Params: []opapi.ParamSpec{
			{Name: "storeId", Type: opapi.ParamString, Required: true, Doc: "shared profile store id"},
			{Name: "attribute", Type: opapi.ParamEnum, Required: true, Enum: segmentAttributes, Doc: "profile attribute to segment by"},
		},
	})
}

// profileAttrs is the attribute contract shared by the profile source's
// output and the enricher's input.
func profileAttrs() []tuple.Attribute {
	return []tuple.Attribute{
		{Name: "user", Type: tuple.String},
		{Name: "source", Type: tuple.String},
		{Name: "negative", Type: tuple.Bool},
		{Name: "hasAge", Type: tuple.Bool},
		{Name: "hasGen", Type: tuple.Bool},
		{Name: "hasLoc", Type: tuple.Bool},
	}
}

// Stream schemas of the use-case applications.
var (
	// TweetSchema carries raw tweets.
	TweetSchema = tuple.MustSchema(
		tuple.Attribute{Name: "user", Type: tuple.String},
		tuple.Attribute{Name: "text", Type: tuple.String},
		tuple.Attribute{Name: "product", Type: tuple.String},
		tuple.Attribute{Name: "negative", Type: tuple.Bool},
	)
	// CauseSchema carries cause-matched negative tweets.
	CauseSchema = tuple.MustSchema(
		tuple.Attribute{Name: "user", Type: tuple.String},
		tuple.Attribute{Name: "cause", Type: tuple.String},
		tuple.Attribute{Name: "known", Type: tuple.Bool},
	)
	// TickSchema carries stock trades.
	TickSchema = tuple.MustSchema(
		tuple.Attribute{Name: "sym", Type: tuple.String},
		tuple.Attribute{Name: "price", Type: tuple.Float},
		tuple.Attribute{Name: "seq", Type: tuple.Int},
	)
	// TrendSchema carries windowed financial aggregates (§5.2).
	TrendSchema = tuple.MustSchema(
		tuple.Attribute{Name: "sym", Type: tuple.String},
		tuple.Attribute{Name: "min", Type: tuple.Float},
		tuple.Attribute{Name: "max", Type: tuple.Float},
		tuple.Attribute{Name: "avg", Type: tuple.Float},
		tuple.Attribute{Name: "bbUpper", Type: tuple.Float},
		tuple.Attribute{Name: "bbLower", Type: tuple.Float},
		tuple.Attribute{Name: "count", Type: tuple.Int},
	)
	// ProfileSchema carries social-media profiles.
	ProfileSchema = tuple.MustSchema(
		tuple.Attribute{Name: "user", Type: tuple.String},
		tuple.Attribute{Name: "source", Type: tuple.String},
		tuple.Attribute{Name: "negative", Type: tuple.Bool},
		tuple.Attribute{Name: "hasAge", Type: tuple.Bool},
		tuple.Attribute{Name: "hasGen", Type: tuple.Bool},
		tuple.Attribute{Name: "hasLoc", Type: tuple.Bool},
	)
	// SegmentSchema carries C3 correlation results.
	SegmentSchema = tuple.MustSchema(
		tuple.Attribute{Name: "attribute", Type: tuple.String},
		tuple.Attribute{Name: "group", Type: tuple.String},
		tuple.Attribute{Name: "count", Type: tuple.Int},
	)
)

// tweetSource emits synthetic tweets from workload.TweetGen.
//
// Parameters: product, seed, count (0 = unbounded), period, negRatio,
// causes (csv), shiftAt, causesAfter (csv).
type tweetSource struct {
	opapi.Base
	ctx                      opapi.Context
	gen                      *workload.TweetGen
	count                    int64
	period                   time.Duration
	user, text, product, neg tuple.FieldRef
}

func (s *tweetSource) Open(ctx opapi.Context) error {
	s.ctx = ctx
	bound := ctx.Params().Bind()
	cfg := workload.TweetConfig{
		Seed:          bound.Int("seed", 1),
		Product:       bound.Str("product", "phone"),
		NegativeRatio: bound.Float("negRatio", 0.8),
		ShiftAt:       int(bound.Int("shiftAt", 0)),
	}
	s.count = bound.Int("count", 0)
	s.period = bound.Duration("period", 0)
	if v := bound.Str("causes", ""); v != "" {
		cfg.Causes = strings.Split(v, ",")
	}
	if v := bound.Str("causesAfter", ""); v != "" {
		cfg.CausesAfter = strings.Split(v, ",")
	}
	if err := bound.Err(); err != nil {
		return fmt.Errorf("TweetSource %s: %w", ctx.Name(), err)
	}
	s.gen = workload.NewTweetGen(cfg)
	out := ctx.OutputSchema(0)
	var err error
	if s.user, err = out.TypedRef("user", tuple.String); err != nil {
		return fmt.Errorf("TweetSource %s: %w", ctx.Name(), err)
	}
	if s.text, err = out.TypedRef("text", tuple.String); err != nil {
		return fmt.Errorf("TweetSource %s: %w", ctx.Name(), err)
	}
	if s.product, err = out.TypedRef("product", tuple.String); err != nil {
		return fmt.Errorf("TweetSource %s: %w", ctx.Name(), err)
	}
	if s.neg, err = out.TypedRef("negative", tuple.Bool); err != nil {
		return fmt.Errorf("TweetSource %s: %w", ctx.Name(), err)
	}
	return nil
}

func (s *tweetSource) Run(stop <-chan struct{}) error {
	return opapi.Generate(s.ctx, stop, new(atomic.Int64), s.count, s.period, func(_ int64, t tuple.Tuple) {
		tw := s.gen.Next()
		s.user.SetStr(t, tw.User)
		s.text.SetStr(t, tw.Text)
		s.product.SetStr(t, tw.Product)
		s.neg.SetBool(t, tw.Negative)
	})
}

// sentimentClassifier derives sentiment from the tweet text (rather than
// trusting the generator's flag), passing classified tweets through.
type sentimentClassifier struct {
	opapi.Base
	ctx       opapi.Context
	text, neg tuple.FieldRef
	outs      []tuple.Tuple // ProcessBatch's scratch, cleared after each run
}

func (c *sentimentClassifier) Open(ctx opapi.Context) error {
	c.ctx = ctx
	in := ctx.InputSchema(0)
	var err error
	if c.text, err = in.TypedRef("text", tuple.String); err != nil {
		return fmt.Errorf("SentimentClassifier %s: %w", ctx.Name(), err)
	}
	if c.neg, err = in.TypedRef("negative", tuple.Bool); err != nil {
		return fmt.Errorf("SentimentClassifier %s: %w", ctx.Name(), err)
	}
	return nil
}

func (c *sentimentClassifier) Process(port int, t tuple.Tuple) error {
	out := t.Clone()
	c.neg.SetBool(out, strings.Contains(c.text.Str(t), "hate"))
	c.ctx.CustomMetric(MetricTweetsClassified).Inc()
	return c.ctx.Submit(0, out)
}

// ProcessBatch classifies the run with the counter resolved once and
// bumped in one add, and submits the classified copies as one run; the
// per-tuple clone stays (the classified copy escapes downstream).
func (c *sentimentClassifier) ProcessBatch(port int, b *tuple.Batch) error {
	text, neg := c.text, c.neg
	for _, t := range b.Tuples() {
		out := t.Clone()
		neg.SetBool(out, strings.Contains(text.Str(t), "hate"))
		c.outs = append(c.outs, out)
	}
	c.ctx.CustomMetric(MetricTweetsClassified).Add(int64(len(c.outs)))
	err := opapi.SubmitAll(c.ctx, 0, c.outs)
	clear(c.outs)
	c.outs = c.outs[:0]
	return err
}

// causeMatcher correlates negative tweets with the known-cause model
// (§5.1). It maintains the two cumulative custom metrics the paper
// describes (totalKnownCauses, totalUnknownCauses) plus sliding-window
// gauges (recentKnownCauses, recentUnknownCauses) over the last
// recentWindow negative tweets, which give Figure 8 its post-adaptation
// drop. Negative tweet texts are appended to the batch corpus for later
// model recomputation.
//
// Parameters: modelId, storeId, recentWindow (default 200).
type causeMatcher struct {
	opapi.Base
	ctx    opapi.Context
	model  *extjob.Model
	store  *extjob.Store
	window int
	recent []bool // true = known
	nKnown int

	inNeg, inText, inUser       tuple.FieldRef
	outUser, outCause, outKnown tuple.FieldRef
}

func (m *causeMatcher) Open(ctx opapi.Context) error {
	m.ctx = ctx
	cfg := ctx.Params().Bind()
	modelID := cfg.Str("modelId", "")
	storeID := cfg.Str("storeId", "")
	m.window = int(cfg.Int("recentWindow", 200))
	if err := cfg.Err(); err != nil {
		return fmt.Errorf("CauseMatcher %s: %w", ctx.Name(), err)
	}
	if modelID == "" || storeID == "" {
		return fmt.Errorf("CauseMatcher %s: modelId and storeId required", ctx.Name())
	}
	m.model = extjob.ModelIn(opapi.ObjectsOf(ctx), modelID)
	m.store = extjob.StoreIn(opapi.ObjectsOf(ctx), storeID)
	if m.window <= 0 {
		m.window = 200
	}
	in, out := ctx.InputSchema(0), ctx.OutputSchema(0)
	var err error
	if m.inNeg, err = in.TypedRef("negative", tuple.Bool); err != nil {
		return fmt.Errorf("CauseMatcher %s: %w", ctx.Name(), err)
	}
	if m.inText, err = in.TypedRef("text", tuple.String); err != nil {
		return fmt.Errorf("CauseMatcher %s: %w", ctx.Name(), err)
	}
	if m.inUser, err = in.TypedRef("user", tuple.String); err != nil {
		return fmt.Errorf("CauseMatcher %s: %w", ctx.Name(), err)
	}
	if m.outUser, err = out.TypedRef("user", tuple.String); err != nil {
		return fmt.Errorf("CauseMatcher %s: %w", ctx.Name(), err)
	}
	if m.outCause, err = out.TypedRef("cause", tuple.String); err != nil {
		return fmt.Errorf("CauseMatcher %s: %w", ctx.Name(), err)
	}
	if m.outKnown, err = out.TypedRef("known", tuple.Bool); err != nil {
		return fmt.Errorf("CauseMatcher %s: %w", ctx.Name(), err)
	}
	return nil
}

func (m *causeMatcher) Process(port int, t tuple.Tuple) error {
	if !m.inNeg.Bool(t) {
		return nil
	}
	text := m.inText.Str(t)
	m.store.Append(text)
	cause := extjob.ExtractCause(text)
	known := cause != "" && m.model.Contains(cause)
	if known {
		m.ctx.CustomMetric(MetricTotalKnownCauses).Inc()
	} else {
		m.ctx.CustomMetric(MetricTotalUnknownCauses).Inc()
	}
	m.recent = append(m.recent, known)
	if known {
		m.nKnown++
	}
	if len(m.recent) > m.window {
		if m.recent[0] {
			m.nKnown--
		}
		m.recent = m.recent[1:]
	}
	m.ctx.CustomMetric(MetricRecentKnownCauses).Set(int64(m.nKnown))
	m.ctx.CustomMetric(MetricRecentUnknownCauses).Set(int64(len(m.recent) - m.nKnown))

	out := tuple.New(m.ctx.OutputSchema(0))
	m.outUser.SetStr(out, m.inUser.Str(t))
	m.outCause.SetStr(out, cause)
	m.outKnown.SetBool(out, known)
	return m.ctx.Submit(0, out)
}

// tickSource emits synthetic stock trades from workload.TickGen.
//
// Parameters: symbols (csv), seed, count (0 = unbounded), period, start,
// step.
type tickSource struct {
	opapi.Base
	ctx             opapi.Context
	gen             *workload.TickGen
	count           int64
	period          time.Duration
	sym, price, seq tuple.FieldRef
}

func (s *tickSource) Open(ctx opapi.Context) error {
	s.ctx = ctx
	bound := ctx.Params().Bind()
	cfg := workload.TickConfig{
		Seed:  bound.Int("seed", 1),
		Start: bound.Float("start", 100),
		Step:  bound.Float("step", 1),
	}
	s.count = bound.Int("count", 0)
	s.period = bound.Duration("period", 0)
	if v := bound.Str("symbols", ""); v != "" {
		cfg.Symbols = strings.Split(v, ",")
	}
	if err := bound.Err(); err != nil {
		return fmt.Errorf("TickSource %s: %w", ctx.Name(), err)
	}
	s.gen = workload.NewTickGen(cfg)
	out := ctx.OutputSchema(0)
	var err error
	if s.sym, err = out.TypedRef("sym", tuple.String); err != nil {
		return fmt.Errorf("TickSource %s: %w", ctx.Name(), err)
	}
	if s.price, err = out.TypedRef("price", tuple.Float); err != nil {
		return fmt.Errorf("TickSource %s: %w", ctx.Name(), err)
	}
	if s.seq, err = out.TypedRef("seq", tuple.Int); err != nil {
		return fmt.Errorf("TickSource %s: %w", ctx.Name(), err)
	}
	return nil
}

func (s *tickSource) Run(stop <-chan struct{}) error {
	return opapi.Generate(s.ctx, stop, new(atomic.Int64), s.count, s.period, func(_ int64, t tuple.Tuple) {
		tk := s.gen.Next()
		s.sym.SetStr(t, tk.Symbol)
		s.price.SetFloat(t, tk.Price)
		s.seq.SetInt(t, tk.Seq)
	})
}

// profileSource emits synthetic social-media profiles (a C1 reader
// application's extraction stage, §5.3).
//
// Parameters: source, seed, count (0 = unbounded), period, pAge, pGen,
// pLoc.
type profileSource struct {
	opapi.Base
	ctx                   opapi.Context
	gen                   *workload.ProfileGen
	count                 int64
	period                time.Duration
	user, source          tuple.FieldRef
	neg, hAge, hGen, hLoc tuple.FieldRef
}

func (s *profileSource) Open(ctx opapi.Context) error {
	s.ctx = ctx
	bound := ctx.Params().Bind()
	s.gen = workload.NewProfileGen(workload.ProfileConfig{
		Seed:      bound.Int("seed", 1),
		Source:    bound.Str("source", "twitter"),
		PAge:      bound.Float("pAge", 0.5),
		PGender:   bound.Float("pGen", 0.5),
		PLocation: bound.Float("pLoc", 0.5),
	})
	s.count = bound.Int("count", 0)
	s.period = bound.Duration("period", 0)
	if err := bound.Err(); err != nil {
		return fmt.Errorf("ProfileSource %s: %w", ctx.Name(), err)
	}
	out := ctx.OutputSchema(0)
	var err error
	if s.user, err = out.TypedRef("user", tuple.String); err != nil {
		return fmt.Errorf("ProfileSource %s: %w", ctx.Name(), err)
	}
	if s.source, err = out.TypedRef("source", tuple.String); err != nil {
		return fmt.Errorf("ProfileSource %s: %w", ctx.Name(), err)
	}
	if s.neg, err = out.TypedRef("negative", tuple.Bool); err != nil {
		return fmt.Errorf("ProfileSource %s: %w", ctx.Name(), err)
	}
	if s.hAge, err = out.TypedRef("hasAge", tuple.Bool); err != nil {
		return fmt.Errorf("ProfileSource %s: %w", ctx.Name(), err)
	}
	if s.hGen, err = out.TypedRef("hasGen", tuple.Bool); err != nil {
		return fmt.Errorf("ProfileSource %s: %w", ctx.Name(), err)
	}
	if s.hLoc, err = out.TypedRef("hasLoc", tuple.Bool); err != nil {
		return fmt.Errorf("ProfileSource %s: %w", ctx.Name(), err)
	}
	return nil
}

func (s *profileSource) Run(stop <-chan struct{}) error {
	return opapi.Generate(s.ctx, stop, new(atomic.Int64), s.count, s.period, func(_ int64, t tuple.Tuple) {
		pr := s.gen.Next()
		s.user.SetStr(t, pr.User)
		s.source.SetStr(t, pr.Source)
		s.neg.SetBool(t, pr.Negative)
		s.hAge.SetBool(t, pr.HasAge)
		s.hGen.SetBool(t, pr.HasGen)
		s.hLoc.SetBool(t, pr.HasLoc)
	})
}

// profileEnricher is a C2 application's integration stage: it enriches
// profiles into the shared data store (deduplicating by user) and
// maintains the per-attribute custom metrics the composition policy
// subscribes to (profilesWithAge / profilesWithGender /
// profilesWithLocation, §5.3).
//
// Parameters: storeId (required).
type profileEnricher struct {
	opapi.Base
	ctx                   opapi.Context
	store                 *ProfileStore
	user                  tuple.FieldRef
	neg, hAge, hGen, hLoc tuple.FieldRef
}

func (e *profileEnricher) Open(ctx opapi.Context) error {
	e.ctx = ctx
	id := ctx.Params().Bind().Str("storeId", "")
	if id == "" {
		return fmt.Errorf("ProfileEnricher %s: storeId required", ctx.Name())
	}
	e.store = ProfileStoreIn(opapi.ObjectsOf(ctx), id)
	in := ctx.InputSchema(0)
	var err error
	if e.user, err = in.TypedRef("user", tuple.String); err != nil {
		return fmt.Errorf("ProfileEnricher %s: %w", ctx.Name(), err)
	}
	if e.neg, err = in.TypedRef("negative", tuple.Bool); err != nil {
		return fmt.Errorf("ProfileEnricher %s: %w", ctx.Name(), err)
	}
	if e.hAge, err = in.TypedRef("hasAge", tuple.Bool); err != nil {
		return fmt.Errorf("ProfileEnricher %s: %w", ctx.Name(), err)
	}
	if e.hGen, err = in.TypedRef("hasGen", tuple.Bool); err != nil {
		return fmt.Errorf("ProfileEnricher %s: %w", ctx.Name(), err)
	}
	if e.hLoc, err = in.TypedRef("hasLoc", tuple.Bool); err != nil {
		return fmt.Errorf("ProfileEnricher %s: %w", ctx.Name(), err)
	}
	return nil
}

func (e *profileEnricher) Process(port int, t tuple.Tuple) error {
	rec := ProfileRecord{
		User:     e.user.Str(t),
		Negative: e.neg.Bool(t),
		HasAge:   e.hAge.Bool(t),
		HasGen:   e.hGen.Bool(t),
		HasLoc:   e.hLoc.Bool(t),
	}
	// The aggregate counts include duplicates across C2 applications,
	// as the paper notes; only the data store is deduplicated.
	if rec.HasAge {
		e.ctx.CustomMetric(MetricProfilesWithAge).Inc()
	}
	if rec.HasGen {
		e.ctx.CustomMetric(MetricProfilesWithGender).Inc()
	}
	if rec.HasLoc {
		e.ctx.CustomMetric(MetricProfilesWithLocation).Inc()
	}
	e.store.Add(rec)
	return nil
}

// segmentSource is a C3 application's reader: it snapshots the profile
// data store, correlates sentiment with one profile attribute, emits the
// segment counts, and finishes — producing the final punctuation whose
// sink port metric triggers the orchestrator's cancellation (§5.3).
//
// Parameters: storeId, attribute (age | gender | location).
type segmentSource struct {
	opapi.Base
	ctx   opapi.Context
	store *ProfileStore
	attr  string
}

func (s *segmentSource) Open(ctx opapi.Context) error {
	s.ctx = ctx
	cfg := ctx.Params().Bind()
	id := cfg.Str("storeId", "")
	s.attr = cfg.Enum("attribute", "", segmentAttributes...)
	if err := cfg.Err(); err != nil {
		return fmt.Errorf("SegmentSource %s: %w", ctx.Name(), err)
	}
	if id == "" {
		return fmt.Errorf("SegmentSource %s: storeId required", ctx.Name())
	}
	if s.attr == "" {
		return fmt.Errorf("SegmentSource %s: attribute required (age|gender|location)", ctx.Name())
	}
	s.store = ProfileStoreIn(opapi.ObjectsOf(ctx), id)
	return nil
}

func (s *segmentSource) Run(stop <-chan struct{}) error {
	has := func(p ProfileRecord) bool {
		switch s.attr {
		case "age":
			return p.HasAge
		case "gender":
			return p.HasGen
		case "location":
			return p.HasLoc
		default:
			return false
		}
	}
	var withNeg, withPos int64
	for _, p := range s.store.Snapshot() {
		if !has(p) {
			continue
		}
		if p.Negative {
			withNeg++
		} else {
			withPos++
		}
	}
	schema := s.ctx.OutputSchema(0)
	for _, row := range []struct {
		group string
		count int64
	}{{"negative", withNeg}, {"positive", withPos}} {
		select {
		case <-stop:
			return nil
		default:
		}
		t := tuple.Build(schema).
			Str("attribute", s.attr).Str("group", row.group).Int("count", row.count).Done()
		if err := s.ctx.Submit(0, t); err != nil {
			return err
		}
	}
	return nil // exhausts: final punctuation follows
}
