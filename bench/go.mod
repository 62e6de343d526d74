module livedev/bench

go 1.24

require livedev v0.0.0

replace livedev => ../
