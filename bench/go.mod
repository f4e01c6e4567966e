module hwtwbg/bench

go 1.24

require hwtwbg v0.0.0

replace hwtwbg => ../
