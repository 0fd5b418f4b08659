// Package regiongrow reproduces "Solving the Region Growing Problem on the
// Connection Machine" (Copty, Ranka, Fox, Shankar; ICPP 1993): parallel
// image segmentation by split-and-merge region growing, in five execution
// models — a sequential reference, a data-parallel (CM Fortran / CM-2
// style) engine on a simulated SIMD machine, a message-passing
// (F77 + CMMD / CM-5 style) engine on a simulated multicomputer with the
// paper's Linear Permutation and Async communication schemes, a native
// shared-memory engine that runs the algorithm on host goroutines with no
// simulated machine, and a distributed engine that runs the same
// message-passing protocol across real regiongrow-worker processes over
// TCP (New(Distributed, WithClusterWorkers(addrs))).
//
// Quick start — construct a reusable Segmenter session and run it with a
// context:
//
//	s, _ := regiongrow.New(regiongrow.SequentialEngine)
//	im := regiongrow.GeneratePaperImage(regiongrow.Image3Circles128)
//	seg, err := s.Segment(ctx, im, regiongrow.Config{
//		Threshold: 10,
//		Tie:       regiongrow.RandomTie,
//		Seed:      1,
//	})
//	// seg.Labels assigns every pixel a region ID; seg.FinalRegions == 11.
//
// The Segmenter is the single code path every engine runs through:
// cancelling ctx aborts the run within one split/merge iteration, a
// WithObserver hook streams typed stage events (split done, merge
// iteration k, N merges), and an internal buffer pool makes repeated
// calls on same-size images allocate near zero for the split stage. To
// run one of the paper's machine configurations instead of the sequential
// engine, pick its kind:
//
//	s, _ := regiongrow.New(regiongrow.CM5Async)
//	seg, err := s.Segment(ctx, im, cfg)
//
// All engines produce identical segmentations for the same Config — the
// property-based test suite enforces it — so the engine choice affects
// only the simulated machine times reported in the Segmentation.
//
// The package-level one-shots (Segment, SegmentSerial, SegmentNative) and
// NewEngine remain as thin deprecated shims over Segmenter sessions,
// consolidated in compat.go.
package regiongrow

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"regiongrow/internal/core"
	"regiongrow/internal/machine"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/quadsplit"
	"regiongrow/internal/rag"
	"regiongrow/internal/regstats"
)

// Image is a gray-scale raster; see the pixmap documentation for methods.
type Image = pixmap.Image

// NewImage allocates a w×h image of black pixels.
func NewImage(w, h int) *Image { return pixmap.New(w, h) }

// LoadPGM reads a PGM (P2 or P5) file.
func LoadPGM(path string) (*Image, error) { return pixmap.LoadPGM(path) }

// SavePGM writes a binary PGM file.
func SavePGM(path string, im *Image) error { return pixmap.SavePGM(path, im) }

// ReadPGM decodes a PGM (P2 or P5) stream.
func ReadPGM(r io.Reader) (*Image, error) { return pixmap.ReadPGM(r) }

// WritePGM encodes the image as binary PGM (P5).
func WritePGM(w io.Writer, im *Image) error { return pixmap.WritePGM(w, im) }

// PaperImageID selects one of the paper's six evaluation images.
type PaperImageID = pixmap.PaperImageID

// The paper's six evaluation images.
const (
	Image1NestedRects128 = pixmap.Image1NestedRects128
	Image2Rects128       = pixmap.Image2Rects128
	Image3Circles128     = pixmap.Image3Circles128
	Image4NestedRects256 = pixmap.Image4NestedRects256
	Image5Rects256       = pixmap.Image5Rects256
	Image6Tool256        = pixmap.Image6Tool256
)

// GeneratePaperImage synthesises one of the paper's evaluation images.
func GeneratePaperImage(id PaperImageID) *Image {
	return pixmap.Generate(id, pixmap.DefaultGenOptions())
}

// Config parameterises a segmentation run; see core.Config.
type Config = core.Config

// Segmentation is a completed segmentation; see core.Segmentation.
type Segmentation = core.Segmentation

// Engine runs the split-and-merge algorithm in one execution model.
type Engine = core.Engine

// TiePolicy selects merge tie-breaking; see rag.TiePolicy.
type TiePolicy = rag.TiePolicy

// Tie-breaking policies. RandomTie is the paper's recommendation: it
// avoids the serialization that ID-based tie-breaking imposes on merges.
const (
	SmallestIDTie = rag.SmallestID
	LargestIDTie  = rag.LargestID
	RandomTie     = rag.Random
)

// EngineKind names an execution model plus machine configuration.
type EngineKind int

// Available engines. The CM-prefixed kinds simulate the paper's five
// machine configurations and report simulated stage times in
// Segmentation.SplitSim / MergeSim. NativeParallel runs the algorithm on
// host goroutines (worker pool sized to GOMAXPROCS) and reports host wall
// times only. Distributed runs it across real worker processes over TCP
// (construct with New and WithClusterWorkers) and reports wall times plus
// real communication counters in Segmentation.Comm.
const (
	SequentialEngine EngineKind = iota
	CM2DataParallel8K
	CM2DataParallel16K
	CM5DataParallel
	CM5LinearPermutation
	CM5Async
	NativeParallel
	Distributed
)

// String returns a stable name for the engine kind.
func (k EngineKind) String() string {
	switch k {
	case SequentialEngine:
		return "sequential"
	case CM2DataParallel8K:
		return "cm2-8k"
	case CM2DataParallel16K:
		return "cm2-16k"
	case CM5DataParallel:
		return "cm5-cmf"
	case CM5LinearPermutation:
		return "cm5-lp"
	case CM5Async:
		return "cm5-async"
	case NativeParallel:
		return "native"
	case Distributed:
		return "dist"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// parseableEngineKinds is every kind ParseEngineKind accepts: the five
// simulated configurations of AllEngineKinds plus the kinds that model
// no machine. Its order is the order enumerated in parse errors.
func parseableEngineKinds() []EngineKind {
	return []EngineKind{SequentialEngine, CM2DataParallel8K,
		CM2DataParallel16K, CM5DataParallel, CM5LinearPermutation, CM5Async,
		NativeParallel, Distributed}
}

// enumerate renders a parse error's valid-choice list ("a, b, or c") from
// the same enumerations the parse functions match against, so the message
// cannot drift from what is actually accepted.
func enumerate(names []string) string {
	switch len(names) {
	case 0:
		return ""
	case 1:
		return names[0]
	}
	return strings.Join(names[:len(names)-1], ", ") + ", or " + names[len(names)-1]
}

// ParseEngineKind resolves the names printed by String. Matching is
// case-insensitive; the error enumerates every valid name.
func ParseEngineKind(s string) (EngineKind, error) {
	kinds := parseableEngineKinds()
	names := make([]string, len(kinds))
	for i, k := range kinds {
		if strings.EqualFold(k.String(), s) {
			return k, nil
		}
		names[i] = k.String()
	}
	return 0, fmt.Errorf("regiongrow: unknown engine %q (valid engines: %s)", s, enumerate(names))
}

// MarshalText implements encoding.TextMarshaler with the String name, so
// JSON wire types (the job records of internal/server and the client SDK)
// and flag packages round-trip engine kinds without ad-hoc switches.
// Unknown kinds fail rather than emitting a name ParseEngineKind would
// reject.
func (k EngineKind) MarshalText() ([]byte, error) {
	s := k.String()
	if strings.HasPrefix(s, "EngineKind(") {
		return nil, fmt.Errorf("regiongrow: cannot marshal unknown engine kind %d", int(k))
	}
	return []byte(s), nil
}

// UnmarshalText implements encoding.TextUnmarshaler via ParseEngineKind
// (case-insensitive).
func (k *EngineKind) UnmarshalText(text []byte) error {
	v, err := ParseEngineKind(string(text))
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// ParseTiePolicy resolves the names printed by TiePolicy.String
// ("smallest-id", "largest-id", "random"). Matching is case-insensitive.
// TiePolicy also implements encoding.TextMarshaler/TextUnmarshaler with
// the same names, so JSON wire types and flag packages round-trip
// policies directly.
func ParseTiePolicy(s string) (TiePolicy, error) {
	var p TiePolicy
	if err := p.UnmarshalText([]byte(s)); err != nil {
		policies := AllTiePolicies()
		names := make([]string, len(policies))
		for i, c := range policies {
			names[i] = c.String()
		}
		return 0, fmt.Errorf("regiongrow: unknown tie policy %q (valid tie policies: %s)", s, enumerate(names))
	}
	return p, nil
}

// ParsePaperImageID resolves a paper image by short name: "image1" through
// "image6" (or just "1" through "6"), case-insensitive. The error
// enumerates every valid name.
func ParsePaperImageID(s string) (PaperImageID, error) {
	id, err := pixmap.ParsePaperImageID(s)
	if err != nil {
		ids := AllPaperImageIDs()
		names := make([]string, len(ids))
		for i, v := range ids {
			names[i] = v.ShortName()
		}
		return 0, fmt.Errorf("regiongrow: unknown paper image %q (valid images: %s)", s, enumerate(names))
	}
	return id, nil
}

// MachineConfig returns the simulated machine configuration of an engine
// kind, and whether it has one (the sequential and native engines model no
// machine).
func (k EngineKind) MachineConfig() (machine.ConfigID, bool) {
	switch k {
	case CM2DataParallel8K:
		return machine.CM2_8K, true
	case CM2DataParallel16K:
		return machine.CM2_16K, true
	case CM5DataParallel:
		return machine.CM5_CMF, true
	case CM5LinearPermutation:
		return machine.CM5_LP, true
	case CM5Async:
		return machine.CM5_Async, true
	default:
		return 0, false
	}
}

// Unbounded disables the split-stage square cap when assigned to
// Config.MaxSquare.
const Unbounded = quadsplit.Unbounded

// AllEngineKinds lists the five simulated configurations in the order of
// the paper's tables. SequentialEngine and NativeParallel are not included:
// they model no machine, so they have no row in the paper's tables.
func AllEngineKinds() []EngineKind {
	return []EngineKind{CM2DataParallel8K, CM2DataParallel16K,
		CM5DataParallel, CM5LinearPermutation, CM5Async}
}

// AllTiePolicies lists every tie policy in declaration order — the set
// ParseTiePolicy accepts. Like AllEngineKinds, it is the enumeration UIs
// and flag help derive from, and the round-trip tests pin the parse
// functions to it so the lists cannot drift.
func AllTiePolicies() []TiePolicy { return rag.AllTiePolicies() }

// AllPaperImageIDs lists the six evaluation images in the paper's order —
// the set ParsePaperImageID accepts.
func AllPaperImageIDs() []PaperImageID { return pixmap.AllPaperImages() }

// RegionStat summarises one final region: area, bounding box, centroid,
// mean intensity, perimeter, and adjacent regions.
type RegionStat = regstats.Region

// ComputeRegionStats derives per-region statistics from a segmentation.
func ComputeRegionStats(seg *Segmentation, im *Image) []RegionStat {
	return regstats.Compute(im, seg.Labels)
}

// SummarizeRegions aggregates region statistics.
func SummarizeRegions(rs []RegionStat) regstats.Summary { return regstats.Summarize(rs) }

// WriteRegionJSON emits region statistics as JSON.
func WriteRegionJSON(w io.Writer, rs []RegionStat) error { return regstats.WriteJSON(w, rs) }

// WriteRegionDOT emits the final region adjacency graph in Graphviz DOT
// form.
func WriteRegionDOT(w io.Writer, rs []RegionStat) error { return regstats.WriteDOT(w, rs) }

// Recolour paints every region of a segmentation with the midpoint of its
// intensity interval, producing an image in which the region structure is
// visible in any PGM viewer.
func Recolour(seg *Segmentation, im *Image) *Image {
	// Region IDs are anchor pixel indices (the smallest linear index in
	// the region), so they already index densely into [0, W·H): a flat
	// shade table replaces the per-pixel map lookup the hot loop used to
	// pay for. The table is one byte per pixel — the same size as the
	// output raster it feeds.
	shade := make([]uint8, im.W*im.H)
	for _, r := range seg.Regions {
		shade[r.ID] = uint8((int(r.IV.Lo) + int(r.IV.Hi)) / 2)
	}
	out := pixmap.New(im.W, im.H)
	for i, lab := range seg.Labels {
		out.Pix[i] = shade[lab]
	}
	return out
}

// Validate checks a segmentation's postconditions against its source
// image: valid partition, connected regions, per-region homogeneity, and
// no remaining mergeable adjacent pair.
func Validate(seg *Segmentation, im *Image, cfg Config) error {
	return core.Validate(seg, im, cfg.Criterion())
}

// CanonicalizeConfig normalizes cfg so that semantically equivalent
// configurations compare equal: the Seed is zeroed under the deterministic
// tie policies (it only drives Random draws, so it cannot affect SmallestID
// or LargestID output). Two canonicalized configs that compare equal are
// guaranteed to produce byte-identical Labels on the same image with the
// same engine — the invariant that makes result caching sound.
func CanonicalizeConfig(cfg Config) Config {
	if cfg.Tie != RandomTie {
		cfg.Seed = 0
	}
	return cfg
}

// HashImage returns a stable hex SHA-256 digest of an image's dimensions
// and pixel content.
func HashImage(im *Image) string {
	h := sha256.New()
	var dims [16]byte
	binary.LittleEndian.PutUint64(dims[0:8], uint64(im.W))
	binary.LittleEndian.PutUint64(dims[8:16], uint64(im.H))
	h.Write(dims[:])
	h.Write(im.Pix)
	return hex.EncodeToString(h.Sum(nil))
}

// CacheKey derives a stable key for the result of segmenting im under cfg
// with the given engine kind. Equal keys guarantee byte-identical
// segmentations because every engine is deterministic: the key folds in
// the image content hash, the canonicalized config (Seed zeroed for
// deterministic ties, MaxSquare resolved to the effective power-of-two cap
// for this image via the shared quadsplit rule, so e.g. 0 and N/8 collide
// as they should), and the engine kind (all kinds produce identical Labels,
// but their reported timings differ, so responses are cached per kind).
func CacheKey(im *Image, cfg Config, kind EngineKind) string {
	return CacheKeyForHash(HashImage(im), im.W, im.H, cfg, kind)
}

// CacheKeyForHash is CacheKey for callers that already hold the image's
// content hash (as served by HashImage) — it saves re-hashing the pixels
// when the hash is also needed elsewhere, e.g. in a response body. The
// image dimensions resolve MaxSquare to its effective cap.
func CacheKeyForHash(imageHash string, w, h int, cfg Config, kind EngineKind) string {
	cfg = CanonicalizeConfig(cfg)
	eff := quadsplit.EffectiveCap(quadsplit.Options{MaxSquare: cfg.MaxSquare}, w, h)
	return fmt.Sprintf("%s|t=%d|tie=%s|seed=%d|sq=%d|eng=%s",
		imageHash, cfg.Threshold, cfg.Tie, cfg.Seed, eff, kind)
}
