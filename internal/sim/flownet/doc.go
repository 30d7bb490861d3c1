// Package flownet provides a flow-level network model with max-min fair
// bandwidth allocation, built on the sim engine.
//
// A Link is a capacity constraint (a NIC direction, a switch port, a
// shared uplink). A transfer is a Flow that traverses one or more links
// and carries a fixed number of bytes. Once per instant in which flows
// start or end, rates are recomputed with progressive filling
// (water-filling): the most contended link is saturated first, its
// flows are frozen at the fair share, and the process repeats on the
// residual network. This is the standard fluid approximation of TCP
// fairness, and is what gives the cluster model realistic congestion
// behaviour under boot storms and snapshot storms without simulating
// packets.
//
// All internal iteration is over insertion-ordered slices, never maps,
// so simulations are bit-for-bit reproducible.
package flownet
