package dse

// Chip-area model for a TSMC 65 nm implementation, calibrated to the
// paper's Figure 7/9 axes: the per-node overhead for NoC switch, bridges
// and routing is 100% of the core logic area (excluding caches), the rule
// the paper takes from [20]. The MPMMU counts as one more node with its
// own cache. Constants are chosen so the 168 sweep configurations span
// roughly 1.5-22 mm², matching the figures' x-ranges.
const (
	// CoreLogicMM2 is the logic area of one Xtensa-class core.
	CoreLogicMM2 = 0.35
	// NoCOverhead is the switch+bridge+routing overhead as a fraction of
	// core logic area.
	NoCOverhead = 1.0
	// CacheMM2PerKB is the SRAM area per kilobyte of cache.
	CacheMM2PerKB = 0.02
)

// Area estimates the chip area in mm² of a configuration with the given
// number of compute cores, per-core L1 capacity and MPMMU cache capacity.
// Every product is rounded by an explicit float64 conversion, which the
// Go spec forbids fusing into a multiply-add (even across statements):
// the area reaches rendered rows, so it must not depend on GOARCH.
func Area(computeCores, cacheKB, mmuCacheKB int) float64 {
	nodeLogic := CoreLogicMM2 * (1 + NoCOverhead)
	compute := float64(float64(computeCores) * (nodeLogic + float64(float64(cacheKB)*CacheMM2PerKB)))
	mmu := nodeLogic + float64(float64(mmuCacheKB)*CacheMM2PerKB)
	return compute + mmu
}
