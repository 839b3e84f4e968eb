package main

import "math/rand"

// arrival is one scheduled request of the open loop: when it is due,
// relative to the start of the run, and whether it is a cold request.
type arrival struct {
	due  float64 // seconds after the loop starts
	cold bool
	pick int // warm: index into the warm specs; cold: ordinal among cold requests
}

// schedule draws a Poisson arrival process at rate requests/second over
// seconds, marking each request cold with probability coldFrac. The
// draws come only from seed, so the same seed gives the same schedule.
func schedule(seed int64, rate, seconds, coldFrac float64, nWarm int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	cold := 0
	for t := rng.ExpFloat64() / rate; t < seconds; t += rng.ExpFloat64() / rate {
		a := arrival{due: t}
		if rng.Float64() < coldFrac {
			a.cold, a.pick = true, cold
			cold++
		} else {
			a.pick = rng.Intn(nWarm)
		}
		out = append(out, a)
	}
	return out
}
