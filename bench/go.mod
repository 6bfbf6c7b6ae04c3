// The benchmark is a module of its own so it builds from its own
// directory; the replace directive points at the repository it measures.
module hilti/bench

go 1.22

require hilti v0.0.0

replace hilti => ../
