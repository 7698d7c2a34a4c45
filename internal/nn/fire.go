package nn

import "tango/internal/tensor"

// ConcatChannels concatenates CHW tensors (or NCHW batches of one size)
// along the channel dimension.  All inputs must share spatial dimensions.
// SqueezeNet's fire modules use it to join the 1x1 and 3x3 expand outputs.
func ConcatChannels(parts ...*tensor.Tensor) (*tensor.Tensor, error) {
	return NewScratch().ConcatChannels(parts...)
}
