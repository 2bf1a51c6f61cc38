module mlcc/bench

go 1.22

require mlcc v0.0.0

replace mlcc => ../
