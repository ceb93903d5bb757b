// The repo benchmark is a module of its own so that it carries its own
// build file; it reaches the simulator's packages through the replace
// below (Go checks "internal" by import path, and this module's path
// sits under mindgap/).
module mindgap/benchmark

go 1.22.0

require mindgap v0.0.0

replace mindgap => ../
