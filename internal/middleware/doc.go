// Package middleware models the cloud middleware layer of Fig. 1 in
// the paper: it coordinates compute nodes to deploy a set of VM
// instances from an initial image (multideployment) and to snapshot
// them concurrently (multisnapshotting), issuing CLONE and COMMIT to
// the mirroring modules exactly as §3.2 describes.
//
// Three interchangeable storage backends implement the Backend
// interface — the paper's approach and its two baselines — so the
// experiment harness runs identical deployment logic over all three.
//
// The paper's approach is reached only through the public blobvfs
// façade: the package imports none of the repository's internals
// (blob store, mirroring module, sharing layer). Retiring old versions
// and collecting garbage are the repository's business, so a caller
// that wants them calls Repo.RetireOld and Repo.GC itself.
package middleware
