module porcupine/benchmark

go 1.24

require porcupine v0.0.0

replace porcupine => ../
