// Package cluster models the hardware testbed: machines with
// processor-sharing CPUs, network interfaces, shared wide-area links, and
// Unix-style load accounting. It reproduces the environment of the paper's
// experiments — the seven-node "Lucky" cluster at Argonne plus a
// twenty-node client cluster at the University of Chicago on the far side
// of a WAN link.
package cluster

import (
	"fmt"

	"repro/internal/sim"
)

// Machine is a simulated host. CPU demand is expressed in CPU-seconds; a
// machine with N cores serves up to N CPU-seconds per second, shared
// processor-style among however many jobs are runnable.
type Machine struct {
	Name  string
	Cores int
	// Speed scales CPU cost: a demand of d CPU-seconds takes d/Speed
	// seconds of service on an otherwise idle core. 1.0 is the reference
	// (1133 MHz PIII in the paper's testbed).
	Speed float64

	env   *sim.Env
	cpu   *sim.PS
	nic   *Link
	site  *Site
	load1 *sim.Damped
}

// NewMachine creates a machine with the given core count and speed and
// attaches it to site (which may be nil for standalone use).
func NewMachine(env *sim.Env, name string, cores int, speed float64, site *Site) *Machine {
	if cores < 1 {
		panic("cluster: machine needs >= 1 core")
	}
	if speed <= 0 {
		panic("cluster: machine speed must be > 0")
	}
	m := &Machine{
		Name:  name,
		Cores: cores,
		Speed: speed,
		env:   env,
		cpu:   sim.NewPS(env, cores, speed),
		load1: sim.NewDamped(60, env.Now()),
	}
	m.cpu.OnCount = func(t float64, n int) { m.load1.Observe(t, float64(n)) }
	m.nic = NewLink(env, name+"/nic", DefaultNICBandwidth, 0)
	m.site = site
	if site != nil {
		site.Machines = append(site.Machines, m)
	}
	return m
}

// Env returns the owning simulation environment.
func (m *Machine) Env() *sim.Env { return m.env }

// NIC returns the machine's network interface link.
func (m *Machine) NIC() *Link { return m.nic }

// Compute blocks p while cpuSeconds of CPU demand are served on this
// machine under processor sharing.
func (m *Machine) Compute(p *sim.Proc, cpuSeconds float64) {
	m.cpu.Consume(p, cpuSeconds)
}

// Load1 reports the one-minute load average — the exponentially damped
// run-queue length, the quantity Ganglia reports as "load_one".
func (m *Machine) Load1() float64 { return m.load1.Value(m.env.Now()) }

// CPUBusyIntegral reports the accumulated CPU utilization integral (in
// busy-seconds, normalized to [0,1] utilization) up to the current time.
// Samplers difference it across an interval to obtain percent CPU load,
// the sum the paper measures as cpu_user + cpu_system.
func (m *Machine) CPUBusyIntegral() float64 {
	return m.cpu.UtilizationIntegral(m.env.Now())
}

func (m *Machine) String() string { return fmt.Sprintf("machine(%s)", m.Name) }
