package tensor

// int8VNNI reports whether the AVX-512 rung runs the VPDPBUSD kernel.
func int8VNNI() bool { return int8VNNIDetected }
