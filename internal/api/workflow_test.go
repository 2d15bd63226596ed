package api

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"chaseci/internal/sim"
	"chaseci/internal/workflow"
)

// dagRuleReference is the DAG rule as the schema once wrote it for itself,
// with a name set and Kahn's algorithm over maps: the oracle the shared
// check is held to.
func dagRuleReference(steps []WorkflowStep) bool {
	names := make(map[string]bool, len(steps))
	for _, st := range steps {
		if st.Name == "" || names[st.Name] {
			return false
		}
		names[st.Name] = true
	}
	indeg := make(map[string]int, len(steps))
	next := make(map[string][]string, len(steps))
	for _, st := range steps {
		for _, d := range st.DependsOn {
			if !names[d] {
				return false
			}
			next[d] = append(next[d], st.Name)
			indeg[st.Name]++
		}
	}
	var queue []string
	for _, st := range steps {
		if indeg[st.Name] == 0 {
			queue = append(queue, st.Name)
		}
	}
	for k := 0; k < len(queue); k++ {
		for _, n := range next[queue[k]] {
			if indeg[n]--; indeg[n] == 0 {
				queue = append(queue, n)
			}
		}
	}
	return len(queue) == len(steps)
}

// randomWorkflow draws a spec of 1-64 steps declared in random order. Most
// dependencies follow a hidden topological order; some name a step later
// in it (a longer cycle, sometimes), the step itself, a step twice, or no
// step at all, and some names repeat or are empty.
func randomWorkflow(rng *sim.RNG) *WorkflowSpec {
	n := 1 + rng.Intn(64)
	rank := make([]int, n)
	for i := range rank {
		rank[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		rank[i], rank[j] = rank[j], rank[i]
	}
	name := func(i int) string { return fmt.Sprint("s", rank[i]) }
	spec := &WorkflowSpec{Name: "random", Steps: make([]WorkflowStep, n)}
	for i := range spec.Steps {
		st := &spec.Steps[i]
		st.Name = name(i)
		switch rng.Intn(200) {
		case 0:
			st.Name = name(rng.Intn(n)) // a duplicate, or its own name
		case 1:
			st.Name = ""
		}
		st.DurationMS = int64(rng.Intn(5000))
		if rng.Intn(6) == 0 {
			st.Measurements = map[string]float64{"pods": float64(rng.Intn(9))}
		}
		if rng.Intn(10) == 0 {
			st.Fail = "boom"
		}
		for range rng.Intn(4) {
			j := rng.Intn(n)
			switch {
			case rank[j] < rank[i]:
				st.DependsOn = append(st.DependsOn, name(j))
				if rng.Intn(10) == 0 {
					st.DependsOn = append(st.DependsOn, name(j))
				}
			case rng.Intn(25) == 0:
				st.DependsOn = append(st.DependsOn, name(j)) // itself, or later: a cycle
			case rng.Intn(80) == 0:
				st.DependsOn = append(st.DependsOn, "ghost")
			}
		}
	}
	return spec
}

// handlerShaped builds spec the way the service's WorkflowHandler does:
// each step records its measurements, then ends after its duration,
// failed when Fail is set.
func handlerShaped(spec *WorkflowSpec) *workflow.Workflow {
	wf := workflow.New(spec.Name, sim.NewClock())
	for i := range spec.Steps {
		st := &spec.Steps[i]
		wf.AddStep(workflow.StepSpec{Name: st.Name, DependsOn: st.DependsOn, Run: func(ctx *workflow.Ctx) {
			for k, v := range st.Measurements {
				ctx.Record(k, v)
			}
			ctx.After(time.Duration(st.DurationMS)*time.Millisecond, func() {
				var err error
				if st.Fail != "" {
					err = errors.New(st.Fail)
				}
				ctx.Done(err)
			})
		}})
	}
	return wf
}

// TestWorkflowValidationAgreesWithEngine: over seeded random specs, the
// schema accepts a workflow exactly when the engine's Run does and when
// the reference rule does; a refusal wraps ErrInvalid; and every accepted
// workflow runs to completion, never stalling.
func TestWorkflowValidationAgreesWithEngine(t *testing.T) {
	verdicts := map[string]int{}
	for seed := range 3000 {
		spec := randomWorkflow(sim.NewRNG(uint64(seed) + 1))
		err := (&JobRequest{Kind: KindWorkflow, Workflow: spec}).Validate()
		if err != nil && !errors.Is(err, ErrInvalid) {
			t.Fatalf("seed %d: %v does not wrap ErrInvalid", seed, err)
		}
		ref := dagRuleReference(spec.Steps)
		wf := handlerShaped(spec)
		report, runErr := wf.ExecuteCtx(context.Background())
		if (err == nil) != ref || (runErr == nil) != ref {
			t.Fatalf("seed %d: Validate %v, Run %v, reference accepts %v\n%+v", seed, err, runErr, ref, spec.Steps)
		}
		switch {
		case ref && (!wf.Done() || len(report.Steps) != len(spec.Steps)):
			t.Fatalf("seed %d: an accepted workflow did not run to completion", seed)
		case ref:
			verdicts["accepted"]++
		case errors.Is(runErr, workflow.ErrDuplicateStep):
			verdicts["duplicate"]++
		case errors.Is(runErr, workflow.ErrUnknownDep):
			verdicts["unknown"]++
		case errors.Is(runErr, workflow.ErrCycle):
			verdicts["cycle"]++
		default:
			verdicts["unnamed"]++
		}
	}
	for _, v := range []string{"accepted", "duplicate", "unknown", "cycle", "unnamed"} {
		if verdicts[v] < 50 {
			t.Errorf("only %d specs %s: %v", verdicts[v], v, verdicts)
		}
	}
}

// TestWorkflowValidationAllocs pins what the schema spends checking a
// one-step workflow, the shape of most workflow jobs: nothing. The check's
// sort of the names is on the stack, and a workflow without dependencies
// has no edges to hold.
func TestWorkflowValidationAllocs(t *testing.T) {
	req := &JobRequest{Kind: KindWorkflow, Workflow: &WorkflowSpec{Name: "tiny", Steps: []WorkflowStep{{Name: "only", DurationMS: 1}}}}
	if n := testing.AllocsPerRun(100, func() {
		if err := req.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("validating a one-step workflow allocates %v times, want 0", n)
	}
}

// BenchmarkValidateChain validates workflow.BenchmarkChain's spec: a
// 10,000-step chain, the schema's step limit, declared in reverse with
// names that do not sort in chain order.
func BenchmarkValidateChain(b *testing.B) {
	const n = 10000
	name := func(p int) string { return fmt.Sprintf("s%05d", p*7%n) }
	spec := &WorkflowSpec{Name: "chain", Steps: make([]WorkflowStep, n)}
	for i := range spec.Steps {
		p := n - 1 - i // the step's place in the chain
		spec.Steps[i].Name = name(p)
		if p > 0 {
			spec.Steps[i].DependsOn = []string{name(p - 1)}
		}
	}
	req := &JobRequest{Kind: KindWorkflow, Workflow: spec}
	b.ReportAllocs()
	for b.Loop() {
		if err := req.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
