package opapi

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"streamorca/internal/ckpt"
	"streamorca/internal/tuple"
	"streamorca/internal/vclock"
)

func TestParamsClone(t *testing.T) {
	p := Params{"k": "v"}
	c := p.Clone()
	c["k"] = "other"
	if p["k"] != "v" {
		t.Fatal("Clone shares storage")
	}
}

type dummyOp struct {
	Base
	id int // non-zero size so distinct instances get distinct addresses
}

func TestRegistryRegisterAndNew(t *testing.T) {
	r := NewRegistry()
	r.Register("Dummy", func() Operator { return &dummyOp{} })
	op, err := r.New("Dummy")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*dummyOp); !ok {
		t.Fatalf("New returned %T", op)
	}
	op2, _ := r.New("Dummy")
	if op == op2 {
		t.Fatal("factory returned a shared instance")
	}
	if _, err := r.New("Ghost"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Register("Dup", func() Operator { return &dummyOp{} })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Register("Dup", func() Operator { return &dummyOp{} })
}

func TestRegistryEmptyKindPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("empty kind did not panic")
		}
	}()
	r.Register("", func() Operator { return &dummyOp{} })
}

// Operators whose methods nearly match an optional SPI. Each compiles
// as an Operator, but the PE's type assertion would never select it.
// (ProcessBatch without Process, or with a Process that drops its
// error, is no case here: the compiler rejects it as an Operator.)
type (
	batchByValue    struct{ Base }
	saveOnly        struct{ Base }
	restoreOnly     struct{ Base }
	saveNoError     struct{ Base }
	mergeOnly       struct{ stateful }
	migrateNoBase   struct{ Base }
	ptrBatch        struct{ Base }
	stateful        struct{ Base }
	completeBatch   struct{ Base }
	completeMigrate struct{ stateful }
)

func (*batchByValue) ProcessBatch(int, tuple.Batch) error         { return nil }
func (*saveOnly) SaveState(*ckpt.Encoder) error                   { return nil }
func (*restoreOnly) RestoreState(*ckpt.Decoder) error             { return nil }
func (*saveNoError) SaveState(*ckpt.Encoder)                      {}
func (*mergeOnly) MergeState(*ckpt.Decoder) error                 { return nil }
func (*migrateNoBase) MergeState(*ckpt.Decoder) error             { return nil }
func (*migrateNoBase) SplitState(*ckpt.Encoder, int, int) error   { return nil }
func (*ptrBatch) ProcessBatch(int, *tuple.Batch) error            { return nil }
func (*stateful) SaveState(*ckpt.Encoder) error                   { return nil }
func (*stateful) RestoreState(*ckpt.Decoder) error                { return nil }
func (*completeBatch) ProcessBatch(int, *tuple.Batch) error       { return nil }
func (*completeMigrate) MergeState(*ckpt.Decoder) error           { return nil }
func (*completeMigrate) SplitState(*ckpt.Encoder, int, int) error { return nil }

// registerPanicCase is one RegisterOp call that must panic with a
// message naming its kind and containing want.
type registerPanicCase struct {
	kind    string
	factory Factory
	model   *OpModel
	want    string
}

func checkRegisterPanics(t *testing.T, cases []registerPanicCase) {
	t.Helper()
	for _, tc := range cases {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprintf("kind %q", tc.kind)) || !strings.Contains(msg, tc.want) {
					t.Errorf("%s: panic %q, want the kind and %q", tc.kind, msg, tc.want)
				}
			}()
			NewRegistry().RegisterOp(tc.kind, tc.factory, tc.model)
		}()
	}
}

func TestRegisterOpRejectsBatchSPINearMisses(t *testing.T) {
	checkRegisterPanics(t, []registerPanicCase{
		{"ByValueBatch", func() Operator { return &batchByValue{} }, nil, "*opapi.batchByValue has ProcessBatch but does not implement opapi.BatchOperator"},
		// A value whose ProcessBatch has a pointer receiver.
		{"ValueBatch", func() Operator { return ptrBatch{} }, nil, "opapi.ptrBatch has ProcessBatch but does not implement opapi.BatchOperator"},
	})
	NewRegistry().Register("Batch", func() Operator { return &completeBatch{} })
}

func TestRegisterOpRejectsStateSPINearMisses(t *testing.T) {
	checkRegisterPanics(t, []registerPanicCase{
		{"SaveOnly", func() Operator { return &saveOnly{} }, nil, "*opapi.saveOnly has SaveState but does not implement opapi.StatefulOperator"},
		{"RestoreOnly", func() Operator { return &restoreOnly{} }, nil, "*opapi.restoreOnly has RestoreState but does not implement opapi.StatefulOperator"},
		{"SaveNoError", func() Operator { return &saveNoError{} }, nil, "*opapi.saveNoError has SaveState but does not implement opapi.StatefulOperator"},
		{"MergeOnly", func() Operator { return &mergeOnly{} }, nil, "*opapi.mergeOnly has MergeState but does not implement opapi.PartitionedStateOperator"},
		{"MigrateNoBase", func() Operator { return &migrateNoBase{} }, nil, "*opapi.migrateNoBase has MergeState but does not implement opapi.PartitionedStateOperator"},
	})
	r := NewRegistry()
	r.Register("Stateful", func() Operator { return &stateful{} })
	r.Register("Migrate", func() Operator { return &completeMigrate{} })
}

func TestRegisterOpRejectsNilFactoryAndBadModel(t *testing.T) {
	checkRegisterPanics(t, []registerPanicCase{
		{"Nil", func() Operator { return nil }, nil, "factory returned nil"},
		// A PartitionKey naming an undeclared param (model.check).
		{"BadKey", func() Operator { return &dummyOp{} }, &OpModel{
			Params:       []ParamSpec{{Name: "attr", Type: ParamString}},
			PartitionKey: "key",
		}, `(*opapi.dummyOp): model BadKey: partition key names undeclared param "key"`},
	})
}

func TestRegistryKindsSorted(t *testing.T) {
	r := NewRegistry()
	for _, k := range []string{"Zeta", "Alpha", "Mid"} {
		r.Register(k, func() Operator { return &dummyOp{} })
	}
	kinds := r.Kinds()
	if len(kinds) != 3 || kinds[0] != "Alpha" || kinds[2] != "Zeta" {
		t.Fatalf("Kinds() = %v", kinds)
	}
}

func TestBaseDefaults(t *testing.T) {
	var b Base
	if err := b.Open(nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Process(0, tuple.Tuple{}); err != nil {
		t.Fatal(err)
	}
	if err := b.ProcessMark(0, tuple.FinalMark); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSleepInterruptible(t *testing.T) {
	clock := vclock.NewManual(time.Unix(0, 0))
	stop := make(chan struct{})
	done := make(chan bool, 1)
	go func() { done <- Sleep(clock, time.Minute, stop) }()
	clock.BlockUntilWaiters(1)
	close(stop)
	if slept := <-done; slept {
		t.Fatal("Sleep reported completion after interrupt")
	}
	// Completed sleep returns true. The interrupted waiter above is
	// still registered on the manual clock, so wait for a second one.
	go func() { done <- Sleep(clock, time.Second, make(chan struct{})) }()
	clock.BlockUntilWaiters(2)
	clock.Advance(time.Second)
	if slept := <-done; !slept {
		t.Fatal("Sleep reported interrupt after completion")
	}
	// Non-positive duration returns immediately.
	if !Sleep(clock, 0, nil) {
		t.Fatal("zero Sleep reported interrupt")
	}
}
