module srb/bench

go 1.22

require srb v0.0.0

replace srb => ../
