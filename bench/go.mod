module blobvfs/bench

go 1.24

require blobvfs v0.0.0

replace blobvfs => ../
