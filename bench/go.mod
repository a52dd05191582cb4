module sommelier/bench

go 1.22

require sommelier v0.0.0

replace sommelier => ../
