package nn

import (
	"fmt"

	"tango/internal/tensor"
)

// checkConcatArgs validates channel concatenation inputs and returns the
// output geometry.
func checkConcatArgs(parts []*tensor.Tensor) (totalC, h, w int, err error) {
	if len(parts) == 0 {
		return 0, 0, 0, fmt.Errorf("nn: concat requires at least one tensor")
	}
	for i, p := range parts {
		if p == nil || p.Rank() != 3 {
			return 0, 0, 0, fmt.Errorf("nn: concat input %d must be CHW, got shape %v", i, shapeOf(p))
		}
		if i == 0 {
			h, w = p.Dim(1), p.Dim(2)
		} else if p.Dim(1) != h || p.Dim(2) != w {
			return 0, 0, 0, fmt.Errorf("%w: concat spatial dims %dx%d vs %dx%d",
				tensor.ErrShape, p.Dim(1), p.Dim(2), h, w)
		}
		totalC += p.Dim(0)
	}
	return totalC, h, w, nil
}

// ConcatChannels concatenates CHW tensors along the channel dimension.  All
// inputs must share spatial dimensions.  SqueezeNet's fire modules use it to
// join the 1x1 and 3x3 expand outputs.
func ConcatChannels(parts ...*tensor.Tensor) (*tensor.Tensor, error) {
	return (*Scratch)(nil).ConcatChannels(parts...)
}

// concatChannelsInto copies the parts into dst, fully overwriting it.
func concatChannelsInto(dst *tensor.Tensor, parts []*tensor.Tensor) {
	off := 0
	for _, p := range parts {
		n := p.Len()
		copy(dst.Data()[off:off+n], p.Data())
		off += n
	}
}
