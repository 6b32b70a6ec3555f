module flexpath/bench

go 1.22

require flexpath v0.0.0

replace flexpath => ../
