module chipmunk/bench

go 1.22

require chipmunk v0.0.0

replace chipmunk => ../
