module sti/perfbench

go 1.22

require sti v0.0.0

replace sti => ../
