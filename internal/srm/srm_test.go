package srm

import (
	"testing"
	"time"

	"streamorca/internal/ids"
	"streamorca/internal/metrics"
)

func sample(job ids.JobID, pe ids.PEID, op, name string, v int64) metrics.Sample {
	return metrics.Sample{
		Scope: metrics.OperatorScope, Job: job, PE: pe, Operator: op,
		Name: name, Value: v, At: time.Unix(int64(v), 0),
	}
}

func TestHostDownNotifiesSubscribers(t *testing.T) {
	s := New()
	var got []HostDown
	s.OnHostDown(func(d HostDown) { got = append(got, d) })
	at := time.Unix(99, 0)
	s.ReportHostDown("h1", at)
	if len(got) != 1 || got[0].Host != "h1" || !got[0].At.Equal(at) {
		t.Fatalf("notifications = %+v", got)
	}
}

func TestPushAndQuerySamples(t *testing.T) {
	s := New()
	s.PushSamples([]metrics.Sample{
		sample(1, 10, "a", "m1", 1),
		sample(1, 10, "a", "m2", 2),
		sample(2, 20, "b", "m1", 3),
	})
	got := s.Query([]ids.JobID{1})
	if len(got) != 2 {
		t.Fatalf("Query(1) = %d samples", len(got))
	}
	for _, m := range got {
		if m.Job != 1 {
			t.Fatalf("foreign sample %+v", m)
		}
	}
	both := s.Query([]ids.JobID{1, 2})
	if len(both) != 3 {
		t.Fatalf("Query(1,2) = %d", len(both))
	}
	if len(s.Query(nil)) != 0 {
		t.Fatal("empty query returned samples")
	}
}

func TestLaterSamplesReplaceEarlier(t *testing.T) {
	s := New()
	s.PushSamples([]metrics.Sample{sample(1, 10, "a", "m", 5)})
	s.PushSamples([]metrics.Sample{sample(1, 10, "a", "m", 9)})
	got := s.Query([]ids.JobID{1})
	if len(got) != 1 || got[0].Value != 9 {
		t.Fatalf("got %+v", got)
	}
}

func TestQueryOrderDeterministic(t *testing.T) {
	s := New()
	s.PushSamples([]metrics.Sample{
		sample(1, 11, "b", "m2", 1),
		sample(1, 10, "a", "m1", 2),
		sample(1, 11, "a", "m1", 3),
		sample(1, 10, "a", "m0", 4),
	})
	got := s.Query([]ids.JobID{1})
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.PE > b.PE || (a.PE == b.PE && a.Operator > b.Operator) {
			t.Fatalf("unsorted at %d: %+v then %+v", i, a, b)
		}
	}
}

func TestDropJob(t *testing.T) {
	s := New()
	s.PushSamples([]metrics.Sample{sample(1, 10, "a", "m", 1), sample(2, 20, "b", "m", 2)})
	s.DropJob(1)
	if len(s.Query([]ids.JobID{1})) != 0 {
		t.Fatal("job 1 samples survived drop")
	}
	if len(s.Query([]ids.JobID{2})) != 1 {
		t.Fatal("job 2 samples lost")
	}
}

func TestPEExitFanout(t *testing.T) {
	s := New()
	var a, b []PEExit
	s.OnPEExit(func(e PEExit) { a = append(a, e) })
	s.OnPEExit(func(e PEExit) { b = append(b, e) })
	e := PEExit{PE: 7, Job: 3, App: "x", Host: "h1", Crashed: true, Reason: "boom"}
	s.ReportPEExit(e)
	if len(a) != 1 || len(b) != 1 || a[0] != e || b[0] != e {
		t.Fatalf("fanout: %+v %+v", a, b)
	}
}
