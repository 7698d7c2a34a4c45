//go:build !amd64

package tensor

func int8VNNI() bool { return false }
