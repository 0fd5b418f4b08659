package pixmap

import (
	"fmt"
	"testing"
)

func TestFlipH(t *testing.T) {
	im, _ := FromRows([][]uint8{{1, 2, 3}, {4, 5, 6}})
	f := im.FlipH()
	if f.At(0, 0) != 3 || f.At(2, 0) != 1 || f.At(1, 1) != 5 {
		t.Fatalf("FlipH = %v", f.Pix)
	}
	if !f.FlipH().Equal(im) {
		t.Fatal("double FlipH not identity")
	}
}

func TestFlipV(t *testing.T) {
	im, _ := FromRows([][]uint8{{1, 2}, {3, 4}, {5, 6}})
	f := im.FlipV()
	if f.At(0, 0) != 5 || f.At(1, 2) != 2 {
		t.Fatalf("FlipV = %v", f.Pix)
	}
	if !f.FlipV().Equal(im) {
		t.Fatal("double FlipV not identity")
	}
}

func TestRotate90(t *testing.T) {
	im, _ := FromRows([][]uint8{{1, 2, 3}, {4, 5, 6}})
	r := im.Rotate90()
	if r.W != 2 || r.H != 3 {
		t.Fatalf("rotated dims %dx%d", r.W, r.H)
	}
	// (0,0) moves to (H-1, 0) = (1, 0).
	if r.At(1, 0) != 1 || r.At(0, 0) != 4 || r.At(1, 2) != 3 {
		t.Fatalf("Rotate90 = %v", r.Pix)
	}
	// Four rotations are the identity.
	if !im.Rotate90().Rotate90().Rotate90().Rotate90().Equal(im) {
		t.Fatal("four rotations not identity")
	}
}

func TestDownsample(t *testing.T) {
	im, _ := FromRows([][]uint8{
		{10, 20, 30, 40},
		{10, 20, 30, 40},
	})
	d, err := im.Downsample(2)
	if err != nil {
		t.Fatal(err)
	}
	if d.W != 2 || d.H != 1 || d.At(0, 0) != 15 || d.At(1, 0) != 35 {
		t.Fatalf("Downsample = %v", d.Pix)
	}
	if _, err := im.Downsample(3); err == nil {
		t.Fatal("non-dividing factor accepted")
	}
	if _, err := im.Downsample(0); err == nil {
		t.Fatal("zero factor accepted")
	}
}

func TestUpsampleDownsampleRoundTrip(t *testing.T) {
	im := Random(8, 4)
	up, err := im.Upsample(3)
	if err != nil {
		t.Fatal(err)
	}
	if up.W != 24 || up.At(5, 5) != im.At(1, 1) {
		t.Fatal("Upsample replication wrong")
	}
	back, err := up.Downsample(3)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(im) {
		t.Fatal("upsample/downsample round trip lost data")
	}
	if _, err := im.Upsample(0); err == nil {
		t.Fatal("zero upsample accepted")
	}
}

// Downsample returns the image reduced by an integer factor, each output
// pixel the mean of its factor×factor block. The dimensions must divide
// evenly.
func (im *Image) Downsample(factor int) (*Image, error) {
	if factor <= 0 || im.W%factor != 0 || im.H%factor != 0 {
		return nil, fmt.Errorf("pixmap: cannot downsample %dx%d by %d", im.W, im.H, factor)
	}
	out := New(im.W/factor, im.H/factor)
	for oy := 0; oy < out.H; oy++ {
		for ox := 0; ox < out.W; ox++ {
			sum := 0
			for dy := 0; dy < factor; dy++ {
				for dx := 0; dx < factor; dx++ {
					sum += int(im.At(ox*factor+dx, oy*factor+dy))
				}
			}
			out.Set(ox, oy, uint8(sum/(factor*factor)))
		}
	}
	return out, nil
}
