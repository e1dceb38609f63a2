package power

// Switch- and fabric-level aggregation. The paper reports savings per IB
// switch assuming the whole switch drops to 43 % of nominal while its links
// run in WRPS mode; this file additionally provides the finer-grained
// decomposition the paper's introduction motivates — links take
// LinkShareOfSwitch (64 %) of switch power, the remainder goes to buffers,
// crossbars and control — so that fabric-level energy can be reported for
// topologies where only some ports of a switch are power-managed.

// SwitchReport aggregates one switch.
type SwitchReport struct {
	// MeanPortPowerFraction is the average per-port power relative to a
	// fully-on port.
	MeanPortPowerFraction float64
	// PowerFraction is the switch draw relative to nominal, decomposed as
	// link share × port fractions + non-link share (gated only by deep
	// mode, see below).
	PowerFraction float64
	// SavingPct is 100·(1 − PowerFraction).
	SavingPct float64
}

// SwitchPower aggregates the host-port accountings of one switch.
// alwaysOnPorts counts ports that are never power-managed (inter-switch
// uplinks); they contribute full power to the link share.
//
// The non-link share of the switch (buffers, crossbars: 36 %) is gated only
// when every managed port is simultaneously in deep mode; as a conservative
// approximation we gate it by the minimum per-port deep fraction.
func SwitchPower(ports []Accounting, alwaysOnPorts int) SwitchReport {
	var rep SwitchReport
	if len(ports) == 0 {
		rep.MeanPortPowerFraction = 1
		rep.PowerFraction = 1
		return rep
	}
	sum := 0.0
	minDeep := 1.0
	for _, a := range ports {
		sum += a.MeanPowerFraction()
		t := a.Total()
		df := 0.0
		if t > 0 {
			df = float64(a.Deep) / float64(t)
		}
		if df < minDeep {
			minDeep = df
		}
	}
	total := float64(len(ports)) + float64(alwaysOnPorts)
	rep.MeanPortPowerFraction = (sum + float64(alwaysOnPorts)) / total

	df := ports[0].DeepFraction
	if df <= 0 {
		df = DeepPowerFraction
	}
	nonLink := (1 - minDeep) + minDeep*df
	rep.PowerFraction = LinkShareOfSwitch*rep.MeanPortPowerFraction + (1-LinkShareOfSwitch)*nonLink
	rep.SavingPct = 100 * (1 - rep.PowerFraction)
	return rep
}

// FabricReport aggregates a set of switches.
type FabricReport struct {
	Switches  []SwitchReport
	SavingPct float64 // mean over switches
}

// FabricPower aggregates per-switch host-port groups. alwaysOn[s] counts the
// unmanaged ports of switch s.
func FabricPower(groups [][]Accounting, alwaysOn []int) FabricReport {
	var rep FabricReport
	sum := 0.0
	for s, g := range groups {
		ao := 0
		if s < len(alwaysOn) {
			ao = alwaysOn[s]
		}
		sw := SwitchPower(g, ao)
		rep.Switches = append(rep.Switches, sw)
		sum += sw.SavingPct
	}
	if len(rep.Switches) > 0 {
		rep.SavingPct = sum / float64(len(rep.Switches))
	}
	return rep
}
