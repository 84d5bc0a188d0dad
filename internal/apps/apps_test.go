package apps

import (
	"testing"
	"time"

	"streamorca/internal/extjob"
	"streamorca/internal/ids"
	"streamorca/internal/opapi"
	"streamorca/internal/ops"
	"streamorca/internal/platform"
	"streamorca/internal/platform/platformtest"
	"streamorca/internal/sam"
	"streamorca/internal/wait"
)

func TestProfileStoreDedup(t *testing.T) {
	s := NewProfileStore()
	if !s.Add(ProfileRecord{User: "u1", HasAge: true}) {
		t.Fatal("first add not new")
	}
	if s.Add(ProfileRecord{User: "u1"}) {
		t.Fatal("duplicate add reported new")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	snap := s.Snapshot()
	if len(snap) != 1 || snap[0].User != "u1" || !snap[0].HasAge {
		t.Fatalf("Snapshot = %+v", snap)
	}
}

func TestSentimentAppEndToEnd(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{Hosts: platformtest.Hosts("h1", "h2", "h3")})
	objs := inst.SAM.Objects()
	extjob.ModelIn(objs, "sa-model", "flash", "screen")
	app, err := SentimentApp(SentimentConfig{
		Name: "SA", Collector: "sa-coll", ModelID: "sa-model", StoreID: "sa-store",
		Product: "iPhone", Seed: 1, Count: 500, Causes: "flash,screen",
		RecentWindow: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if app.OperatorByName(MatcherOp) == nil {
		t.Fatalf("matcher operator %q missing", MatcherOp)
	}
	if !app.InCompositeType(MatcherOp, "SentimentAnalysis") {
		t.Fatal("matcher not inside the analysis composite")
	}
	job, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	coll := ops.Collector(objs, "sa-coll")
	wait.For(t, "pipeline completion", func() bool { return coll.Finals() == 1 })
	// All causes were known: the display stream carries known=true rows,
	// the corpus collected negative tweets, the metrics counted them.
	if coll.Len() == 0 {
		t.Fatal("no cause-matched output")
	}
	for _, tp := range coll.Tuples() {
		if !tp.Bool("known") {
			t.Fatalf("unexpected unknown cause: %s", tp.Format())
		}
	}
	if n := extjob.StoreIn(objs, "sa-store").Len(); n != coll.Len() {
		t.Fatalf("corpus %d != matched %d", n, coll.Len())
	}
	inst.FlushMetrics()
	var known, unknown int64
	for _, m := range inst.SRM.Query([]ids.JobID{job}) {
		if m.Operator == MatcherOp && m.Custom {
			switch m.Name {
			case "totalKnownCauses":
				known = m.Value
			case "totalUnknownCauses":
				unknown = m.Value
			}
		}
	}
	if known == 0 || unknown != 0 {
		t.Fatalf("metrics known=%d unknown=%d", known, unknown)
	}
}

func TestTrendAppProducesWindowStats(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{Hosts: platformtest.Hosts("h1", "h2", "h3")})
	app, err := TrendApp(TrendConfig{
		Name: "TA", Symbols: "IBM,HPQ", Seed: 2, Count: 400,
		Period: 0, Window: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(app.PEs) != 3 {
		t.Fatalf("TrendApp PEs = %d", len(app.PEs))
	}
	if _, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{
		Params: map[string]string{"collector": "ta-coll"},
	}); err != nil {
		t.Fatal(err)
	}
	coll := ops.Collector(inst.SAM.Objects(), "ta-coll")
	wait.For(t, "trend output", func() bool { return coll.Finals() == 1 })
	if coll.Len() != 400 {
		t.Fatalf("outputs = %d", coll.Len())
	}
	last, _ := coll.Last()
	if last.Float("min") > last.Float("avg") || last.Float("avg") > last.Float("max") {
		t.Fatalf("stats inconsistent: %s", last.Format())
	}
	if last.Float("bbUpper") < last.Float("avg") || last.Float("bbLower") > last.Float("avg") {
		t.Fatalf("bollinger inconsistent: %s", last.Format())
	}
	if last.Int("count") != 200 { // two symbols round-robin over 400 ticks
		t.Fatalf("window count = %d", last.Int("count"))
	}
}

func TestSocialAppsComposeViaImportExport(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{Hosts: platformtest.Hosts("h1", "h2", "h3")})
	objs := inst.SAM.Objects()
	cfg := SocialConfig{StoreID: "social-test-store", Seed: 3, Period: 100 * time.Microsecond}
	c1, err := C1App("C1T", "twitter", cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := C2App("C2Q", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.SAM.SubmitJob(c1, sam.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.SAM.SubmitJob(c2, sam.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	store := ProfileStoreIn(objs, cfg.StoreID)
	wait.For(t, "profiles in store", func() bool { return store.Len() > 100 })

	// C3 snapshots the store and finishes with a final punctuation.
	c3, err := C3App("C3A", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.SAM.SubmitJob(c3, sam.SubmitOptions{
		Params: map[string]string{"attribute": "age", "collector": "social-seg"},
	}); err != nil {
		t.Fatal(err)
	}
	seg := ops.Collector(objs, "social-seg")
	wait.For(t, "segmentation done", func() bool { return seg.Finals() == 1 })
	rows := seg.Tuples()
	if len(rows) != 2 {
		t.Fatalf("segment rows = %d", len(rows))
	}
	var total int64
	for _, r := range rows {
		if r.String("attribute") != "age" {
			t.Fatalf("row attribute %q", r.String("attribute"))
		}
		total += r.Int("count")
	}
	if total == 0 {
		t.Fatal("segmentation counted nothing")
	}
}

func TestC3AppRejectsBadAttribute(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{Hosts: platformtest.Hosts("h1", "h2", "h3")})
	cfg := SocialConfig{StoreID: "social-bad", Period: time.Millisecond}
	c3, err := C3App("C3Bad", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Missing attribute parameter: the operator fails to open and the
	// submission rolls back.
	if _, err := inst.SAM.SubmitJob(c3, sam.SubmitOptions{
		Params: map[string]string{"collector": "x"},
	}); err == nil {
		t.Fatal("submission with unresolved attribute succeeded")
	}
}

// TestAppKindsDeclareModels pins the descriptor contract: every
// application operator kind registers an operator model, so the
// compiler validates app pipelines at Build time.
func TestAppKindsDeclareModels(t *testing.T) {
	for _, kind := range []string{
		KindTweetSource, KindSentiment, KindCauseMatcher, KindTickSource,
		KindProfileSource, KindProfileEnrich, KindSegmentSource,
	} {
		if opapi.Default.Model(kind) == nil {
			t.Errorf("kind %s registered without an operator model", kind)
		}
	}
}
