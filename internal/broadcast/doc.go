// Package broadcast implements the taktuk-style image prepropagation
// of the paper's baseline (§5.2): a binomial broadcast tree following
// the postal model (Bar-Noy & Kipnis), with store-and-forward hops —
// every node fully receives and persists the image before forwarding
// it to its children, one child at a time, as taktuk's adaptive trees
// effectively do for bulk file distribution.
//
// The per-hop effective rate is a calibrated constant (DefaultEffRate):
// measured taktuk deployments interleave TCP chain forwarding with
// local disk write-back and reach well below NIC line rate.
package broadcast
