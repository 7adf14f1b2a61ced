// The benchmark is a module of its own so that it builds from bench/
// alone plus the parent module it measures; its import path sits under
// repro/, which is what lets it import repro/internal/... .
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
