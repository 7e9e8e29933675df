module sdpbench

go 1.22

require sdpopt v0.0.0

replace sdpopt => ../
