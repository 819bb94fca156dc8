package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"lyra"
	"lyra/internal/job"
	"lyra/internal/obs"
)

// describeRunErr names an invariant violation as such, so a broken run is
// never mistaken for a plain configuration error.
func describeRunErr(err error) error {
	var ve *obs.ViolationError
	if errors.As(err, &ve) {
		return fmt.Errorf("invariant violation: %w", err)
	}
	return err
}

// check verifies one run's outputs: every simulation ran, the drained
// runs lost no job, the capped run accounts for every job, and every
// matrix cell met its pack SLO. It returns the first failure.
func check(o *outcome) error {
	for i, c := range o.cells {
		if c.Err != nil {
			return fmt.Errorf("%s: %w", o.labels[i], describeRunErr(c.Err))
		}
		if len(c.Violations) > 0 {
			return fmt.Errorf("%s: SLO %s", o.labels[i], c.Violations[0])
		}
	}
	for i, rep := range o.reports {
		if rep == nil || rep.Raw == nil {
			return fmt.Errorf("%s: no report", o.labels[i])
		}
		if len(rep.Raw.Jobs) != rep.Total {
			return fmt.Errorf("%s: %d jobs in the result, %d in the trace", o.labels[i], len(rep.Raw.Jobs), rep.Total)
		}
		if o.drained && rep.Completed != rep.Total {
			return fmt.Errorf("%s: %d of %d jobs lost", o.labels[i], rep.Total-rep.Completed, rep.Total)
		}
		if o.maxTime > 0 {
			if err := accountJobs(rep, o.maxTime); err != nil {
				return fmt.Errorf("%s: %w", o.labels[i], err)
			}
		}
	}
	return nil
}

// accountJobs checks that every job of a run capped at maxTime is exactly
// one of finished, running, queued or not yet arrived, and that the
// finished count is the report's.
func accountJobs(rep *lyra.Report, maxTime float64) error {
	var finished, running, queued, future int
	seen := make(map[int]bool, len(rep.Raw.Jobs))
	for _, j := range rep.Raw.Jobs {
		if seen[j.ID] {
			return fmt.Errorf("job %d reported twice", j.ID)
		}
		seen[j.ID] = true
		arrived := float64(j.Arrival) <= maxTime
		switch {
		case j.State == job.Completed && arrived && float64(j.FinishTime) <= maxTime:
			finished++
		case j.State == job.Running && arrived && len(j.Workers) > 0:
			running++
		case j.State == job.Pending && arrived:
			queued++
		case j.State == job.Pending && !j.Started:
			future++
		default:
			return fmt.Errorf("job %d unaccounted for: state %v, arrival %d, finish %d, %d workers",
				j.ID, j.State, j.Arrival, j.FinishTime, len(j.Workers))
		}
	}
	if finished != rep.Completed {
		return fmt.Errorf("%d jobs finished but the report counts %d", finished, rep.Completed)
	}
	if n := finished + running + queued + future; n != rep.Total {
		return fmt.Errorf("%d of %d jobs accounted for", n, rep.Total)
	}
	return nil
}

// simStats are the simulated end-to-end results of one run. They are
// exact: the same code, workload and seed give the same values, and
// Digest pins every simulated statistic of every report.
type simStats struct {
	JCTMean        float64 `json:"jct_mean_s"`
	QueueMean      float64 `json:"queue_mean_s"`
	CompletedRatio float64 `json:"completed_ratio"`
	Digest         string  `json:"digest"`
}

// sameSim returns nil when a run's simulated statistics equal the
// reference run's, and otherwise names the difference.
func sameSim(ref, got simStats) error {
	if got == ref {
		return nil
	}
	return fmt.Errorf("simulated statistics differ: jct_mean_s %v vs %v, queue_mean_s %v vs %v, completed_ratio %v vs %v, digest %.12s vs %.12s",
		got.JCTMean, ref.JCTMean, got.QueueMean, ref.QueueMean, got.CompletedRatio, ref.CompletedRatio, got.Digest, ref.Digest)
}

// summarize computes the run's simulated statistics; over matrix cells the
// means are job-weighted.
func summarize(o *outcome) simStats {
	var jct, queue float64
	var jctN, queueN, completed, total int
	h := sha256.New()
	for i, rep := range o.reports {
		jct += rep.JCT.Mean * float64(rep.JCT.N)
		jctN += rep.JCT.N
		queue += rep.Queue.Mean * float64(rep.Queue.N)
		queueN += rep.Queue.N
		completed += rep.Completed
		total += rep.Total
		r := rep.Raw
		fmt.Fprintf(h, "%s|%+v|%+v|%+v|%+v|%v|%v|%v|%d|%v|%d|%v|%v|%d/%d|%d|%d|%v|%d|%d|%d|%d\n",
			o.labels[i], rep.Queue, rep.JCT, rep.OnLoanQueue, rep.OnLoanJCT,
			rep.TrainUsage, rep.OverallUsage, rep.OnLoanUsage,
			rep.Preemptions, rep.PreemptionRatio, rep.ScalingOps,
			rep.CollateralDamage, rep.FlexSatisfiedShare, rep.Completed, rep.Total,
			rep.Crashes, rep.Recoveries, rep.LostCapacityGPUSec,
			r.SchedEpochs, r.SkippedSchedEpochs, r.ReclaimOps, r.ReclaimedServers)
	}
	s := simStats{Digest: hex.EncodeToString(h.Sum(nil))}
	if jctN > 0 {
		s.JCTMean = jct / float64(jctN)
	}
	if queueN > 0 {
		s.QueueMean = queue / float64(queueN)
	}
	if total > 0 {
		s.CompletedRatio = float64(completed) / float64(total)
	}
	return s
}
