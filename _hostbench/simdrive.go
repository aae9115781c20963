package main

import (
	"fmt"
	"time"

	"scaffe/internal/sim"
)

// The bare kernel drive: driveProcs procs each make driveRounds rounds
// of Sleep then Wait on a Completion fired by an At callback, and
// driveChains callback chains each schedule driveLinks events.
const (
	driveProcs  = 64
	driveRounds = 400
	driveChains = 16
	driveLinks  = 40000
	driveRepeat = 3
)

// simDrive times a bare sim.Kernel, with no MPI or training above it:
// the host ns per proc resume (Spawn/Sleep/Completion/At) and per
// callback event. Each is the median of driveRepeat drives. The drives'
// virtual end times are known in closed form and are checked.
func simDrive() (resumeNs, eventNs float64, err error) {
	var rs, es []float64
	for i := 0; i < driveRepeat; i++ {
		r, err := driveResumes()
		if err != nil {
			return 0, 0, err
		}
		e, err := driveEvents()
		if err != nil {
			return 0, 0, err
		}
		rs, es = append(rs, r), append(es, e)
	}
	return median(rs), median(es), nil
}

func driveResumes() (float64, error) {
	k := sim.New()
	for i := 0; i < driveProcs; i++ {
		d := sim.Duration(1 + i%7)
		k.Spawn(fmt.Sprintf("drive%d", i), func(p *sim.Proc) {
			for r := 0; r < driveRounds; r++ {
				p.Sleep(d)
				c := k.NewCompletion()
				k.At(p.Now()+3, c.Fire)
				p.Wait(c)
			}
		})
	}
	start := time.Now()
	if err := k.Run(); err != nil {
		return 0, fmt.Errorf("sim drive: %w", err)
	}
	ns := float64(time.Since(start).Nanoseconds())
	// The slowest proc sleeps 7 and waits 3 per round.
	if want := sim.Time(driveRounds * (7 + 3)); k.Now() != want {
		return 0, fmt.Errorf("sim drive ended at %d, want %d", k.Now(), want)
	}
	return ns / (driveProcs * driveRounds * 2), nil
}

func driveEvents() (float64, error) {
	k := sim.New()
	fired := 0
	for c := 0; c < driveChains; c++ {
		step := sim.Duration(1 + c%5)
		left := driveLinks
		var tick func()
		tick = func() {
			fired++
			if left--; left > 0 {
				k.After(step, tick)
			}
		}
		k.At(0, tick)
	}
	start := time.Now()
	if err := k.Run(); err != nil {
		return 0, fmt.Errorf("sim event drive: %w", err)
	}
	ns := float64(time.Since(start).Nanoseconds())
	if want := sim.Time(5 * (driveLinks - 1)); fired != driveChains*driveLinks || k.Now() != want {
		return 0, fmt.Errorf("sim event drive fired %d events ending at %d, want %d ending at %d",
			fired, k.Now(), driveChains*driveLinks, want)
	}
	return ns / (driveChains * driveLinks), nil
}
