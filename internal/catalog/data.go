package catalog

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/model"
)

// intel builds an Intel Xeon entry.
func intel(name string, y int, m time.Month, cores, tpc int, ghz, tdp float64,
	maxSock int, opcg, fpRatio float64, vec, pop int) CPUSpec {
	return CPUSpec{
		Name: name, Vendor: model.VendorIntel, Class: model.ClassXeon,
		Avail: ym(y, m), Cores: cores, ThreadsPerCore: tpc,
		NominalGHz: ghz, TDPWatts: tdp, MaxSockets: maxSock,
		OpsPerCoreGHz: opcg, FPRatio: fpRatio, VectorBits: vec, Popularity: pop,
	}
}

// amd builds an AMD Opteron or EPYC entry (class derived from the name).
func amd(name string, y int, m time.Month, cores, tpc int, ghz, tdp float64,
	maxSock int, opcg, fpRatio float64, vec, pop int) CPUSpec {
	return CPUSpec{
		Name: name, Vendor: model.VendorAMD, Class: model.ClassifyCPU(name),
		Avail: ym(y, m), Cores: cores, ThreadsPerCore: tpc,
		NominalGHz: ghz, TDPWatts: tdp, MaxSockets: maxSock,
		OpsPerCoreGHz: opcg, FPRatio: fpRatio, VectorBits: vec, Popularity: pop,
	}
}

// specs is the processor table. OpsPerCoreGHz values are calibrated so
// the simulated fleet reproduces the paper's efficiency magnitudes (a
// few hundred overall ssj_ops/W in 2007, tens of thousands in 2023+).
// Popularity weights how often the synthetic fleet picks a part:
// volume mid-range SKUs (4) outnumber mainstream high-end (2–3) and
// flagship or niche parts (1), which keeps fleet-mean core counts near
// the paper's per-vendor feature statistics.
var specs = []CPUSpec{
	// --- Intel Xeon: NetBurst / Core era (2005–2008) ---
	intel("Intel Xeon 3.60 GHz (Irwindale)", 2005, time.February, 1, 2, 3.60, 110, 2, 5000, 0.95, 128, 3),
	intel("Intel Xeon 5060", 2006, time.May, 2, 2, 3.20, 130, 2, 6000, 0.95, 128, 2),
	intel("Intel Xeon 5160", 2006, time.June, 2, 1, 3.00, 80, 2, 8000, 1.00, 128, 3),
	intel("Intel Xeon X5355", 2006, time.November, 4, 1, 2.66, 120, 2, 9000, 1.00, 128, 3),
	intel("Intel Xeon 7140M", 2006, time.August, 2, 2, 3.40, 150, 4, 6000, 0.95, 128, 1),
	intel("Intel Xeon L5335", 2007, time.August, 4, 1, 2.00, 50, 2, 9200, 1.00, 128, 1),
	intel("Intel Xeon X5460", 2007, time.November, 4, 1, 3.16, 120, 2, 10500, 1.00, 128, 3),
	intel("Intel Xeon X7350", 2007, time.September, 4, 1, 2.93, 130, 4, 9500, 1.00, 128, 1),
	intel("Intel Xeon L5420", 2008, time.March, 4, 1, 2.50, 50, 2, 10500, 1.00, 128, 1),
	intel("Intel Xeon X3360", 2008, time.January, 4, 1, 2.83, 95, 1, 10500, 1.00, 128, 2),

	// --- Intel Xeon: Nehalem / Westmere (2009–2011) ---
	intel("Intel Xeon X5570", 2009, time.March, 4, 2, 2.93, 95, 2, 15000, 1.00, 128, 4),
	intel("Intel Xeon L5530", 2009, time.August, 4, 2, 2.40, 60, 2, 15000, 1.00, 128, 1),
	intel("Intel Xeon X3470", 2009, time.September, 4, 2, 2.93, 95, 1, 15000, 1.00, 128, 2),
	intel("Intel Xeon X5670", 2010, time.March, 6, 2, 2.93, 95, 2, 16500, 1.00, 128, 4),
	intel("Intel Xeon L5640", 2010, time.March, 6, 2, 2.26, 60, 2, 16500, 1.00, 128, 1),
	intel("Intel Xeon X7560", 2010, time.April, 8, 2, 2.26, 130, 4, 15500, 1.00, 128, 1),
	intel("Intel Xeon E7-4870", 2011, time.April, 10, 2, 2.40, 130, 4, 17000, 1.00, 128, 1),
	intel("Intel Xeon E3-1260L", 2011, time.April, 4, 2, 2.40, 45, 1, 17500, 1.00, 256, 2),

	// --- Intel Xeon: Sandy Bridge → Broadwell (2012–2016) ---
	intel("Intel Xeon E5-2670", 2012, time.March, 8, 2, 2.60, 115, 2, 19000, 1.05, 256, 4),
	intel("Intel Xeon E5-2660", 2012, time.March, 8, 2, 2.20, 95, 2, 19000, 1.05, 256, 3),
	intel("Intel Xeon E3-1265L v2", 2012, time.June, 4, 2, 2.50, 45, 1, 19500, 1.05, 256, 1),
	intel("Intel Xeon E5-2697 v2", 2013, time.September, 12, 2, 2.70, 130, 2, 20000, 1.05, 256, 3),
	intel("Intel Xeon E5-2699 v3", 2014, time.September, 18, 2, 2.30, 145, 2, 22000, 1.08, 256, 2),
	intel("Intel Xeon E5-2650L v3", 2015, time.February, 12, 2, 1.80, 65, 2, 22000, 1.08, 256, 1),
	intel("Intel Xeon E5-2699 v4", 2016, time.March, 22, 2, 2.20, 145, 2, 23500, 1.08, 256, 2),
	intel("Intel Xeon E5-2630L v4", 2016, time.March, 10, 2, 1.80, 55, 2, 23500, 1.08, 256, 1),

	// --- Intel Xeon Scalable (2017–2024) ---
	intel("Intel Xeon Platinum 8180", 2017, time.July, 28, 2, 2.50, 205, 8, 15900, 1.15, 512, 2),
	intel("Intel Xeon Gold 6138", 2017, time.July, 20, 2, 2.00, 125, 2, 20600, 1.15, 512, 4),
	intel("Intel Xeon Platinum 8280", 2019, time.April, 28, 2, 2.70, 205, 4, 26610, 1.15, 512, 2),
	intel("Intel Xeon Gold 6252", 2019, time.April, 24, 2, 2.10, 150, 2, 29420, 1.15, 512, 4),
	intel("Intel Xeon Platinum 8380", 2021, time.April, 40, 2, 2.30, 270, 2, 35580, 1.15, 512, 1),
	intel("Intel Xeon Platinum 8362", 2021, time.April, 32, 2, 2.80, 265, 2, 30000, 1.15, 512, 2),
	intel("Intel Xeon Gold 6330", 2021, time.April, 28, 2, 2.00, 205, 2, 43730, 1.15, 512, 3),
	intel("Intel Xeon Silver 4314", 2021, time.April, 16, 2, 2.40, 135, 2, 40250, 1.15, 512, 4),
	intel("Intel Xeon Platinum 8490H", 2023, time.February, 60, 2, 1.90, 350, 8, 71450, 1.18, 512, 1),
	intel("Intel Xeon Gold 6448Y", 2023, time.February, 32, 2, 2.10, 225, 2, 54800, 1.18, 512, 3),
	intel("Intel Xeon Gold 5420+", 2023, time.February, 28, 2, 2.00, 205, 2, 53270, 1.18, 512, 4),
	intel("Intel Xeon Gold 6426Y", 2023, time.February, 16, 2, 2.50, 185, 2, 59700, 1.18, 512, 4),
	intel("Intel Xeon Gold 6444Y", 2023, time.February, 16, 2, 3.60, 270, 2, 43000, 1.18, 512, 2),
	intel("Intel Xeon Silver 4510", 2023, time.December, 12, 2, 2.40, 150, 2, 76600, 1.18, 512, 4),
	intel("Intel Xeon Platinum 8592+", 2023, time.December, 64, 2, 1.90, 350, 2, 88150, 1.18, 512, 1),
	intel("Intel Xeon 6780E", 2024, time.June, 144, 1, 2.20, 330, 2, 48130, 0.90, 256, 1),

	// --- AMD Opteron (2005–2012) ---
	amd("AMD Opteron 252", 2005, time.February, 1, 1, 2.60, 92, 2, 5200, 0.95, 128, 2),
	amd("AMD Opteron 2218", 2006, time.August, 2, 1, 2.60, 95, 2, 8000, 0.95, 128, 3),
	amd("AMD Opteron 2216 HE", 2006, time.August, 2, 1, 2.40, 68, 2, 8000, 0.95, 128, 1),
	amd("Quad-Core AMD Opteron 2356", 2008, time.April, 4, 1, 2.30, 75, 2, 9500, 1.00, 128, 3),
	amd("AMD Opteron 2384", 2009, time.January, 4, 1, 2.70, 75, 2, 10500, 1.00, 128, 3),
	amd("AMD Opteron 6174", 2010, time.March, 12, 1, 2.20, 80, 4, 13000, 1.00, 128, 3),
	amd("AMD Opteron 6276", 2011, time.November, 16, 1, 2.30, 115, 4, 12000, 0.90, 256, 3),
	amd("AMD Opteron 6380", 2012, time.November, 16, 1, 2.50, 115, 4, 12500, 0.90, 256, 2),

	// --- AMD EPYC (2017–2024) ---
	amd("AMD EPYC 7601", 2017, time.July, 32, 2, 2.20, 180, 2, 33500, 0.95, 256, 2),
	amd("AMD EPYC 7551", 2017, time.July, 32, 2, 2.00, 180, 2, 39100, 0.95, 256, 3),
	amd("AMD EPYC 7742", 2019, time.August, 64, 2, 2.25, 225, 2, 35300, 1.00, 256, 2),
	amd("AMD EPYC 7702", 2019, time.August, 64, 2, 2.00, 200, 2, 37800, 1.00, 256, 2),
	amd("AMD EPYC 7402", 2019, time.August, 24, 2, 2.80, 180, 2, 52700, 1.00, 256, 4),
	amd("AMD EPYC 7763", 2021, time.March, 64, 2, 2.45, 280, 2, 50730, 1.00, 256, 2),
	amd("AMD EPYC 7713", 2021, time.March, 64, 2, 2.00, 225, 2, 46500, 1.00, 256, 2),
	amd("AMD EPYC 7313", 2021, time.March, 16, 2, 3.00, 155, 2, 77400, 1.00, 256, 4),
	amd("AMD EPYC 9654", 2022, time.November, 96, 2, 2.40, 360, 2, 68000, 1.00, 512, 1),
	amd("AMD EPYC 9554", 2022, time.November, 64, 2, 3.10, 360, 2, 61680, 1.00, 512, 2),
	amd("AMD EPYC 9334", 2022, time.November, 32, 2, 2.70, 210, 2, 74900, 1.00, 512, 4),
	amd("AMD EPYC 9224", 2022, time.November, 24, 2, 2.50, 200, 2, 89400, 1.00, 512, 4),
	amd("AMD EPYC 9754", 2023, time.August, 128, 2, 2.25, 360, 2, 56700, 0.90, 512, 2),
	amd("AMD EPYC 8324P", 2023, time.September, 32, 2, 2.05, 180, 1, 110000, 1.00, 512, 3),
	amd("AMD EPYC 9965", 2024, time.October, 192, 2, 2.25, 500, 2, 51200, 0.90, 512, 1),

	// --- Non-x86 server parts (filtered by the paper: "Other" vendor) ---
	{Name: "Sun UltraSPARC T2", Vendor: model.VendorOther, Class: model.ClassNonServer,
		Avail: ym(2007, time.October), Cores: 8, ThreadsPerCore: 8, NominalGHz: 1.40,
		TDPWatts: 95, MaxSockets: 1, OpsPerCoreGHz: 9000, FPRatio: 0.60, VectorBits: 128, Popularity: 1},
	{Name: "IBM POWER7", Vendor: model.VendorOther, Class: model.ClassNonServer,
		Avail: ym(2010, time.February), Cores: 8, ThreadsPerCore: 4, NominalGHz: 3.00,
		TDPWatts: 150, MaxSockets: 4, OpsPerCoreGHz: 16000, FPRatio: 1.20, VectorBits: 128, Popularity: 1},
	{Name: "Ampere Altra Q80-30", Vendor: model.VendorOther, Class: model.ClassNonServer,
		Avail: ym(2021, time.June), Cores: 80, ThreadsPerCore: 1, NominalGHz: 3.00,
		TDPWatts: 210, MaxSockets: 2, OpsPerCoreGHz: 28000, FPRatio: 0.80, VectorBits: 128, Popularity: 1},

	// --- x86 desktop/workstation parts (filtered: not Xeon/Opteron/EPYC) ---
	{Name: "Intel Pentium D 950", Vendor: model.VendorIntel, Class: model.ClassNonServer,
		Avail: ym(2006, time.January), Cores: 2, ThreadsPerCore: 1, NominalGHz: 3.40,
		TDPWatts: 130, MaxSockets: 1, OpsPerCoreGHz: 5500, FPRatio: 0.95, VectorBits: 128, Popularity: 1},
	{Name: "Intel Core i7-980X", Vendor: model.VendorIntel, Class: model.ClassNonServer,
		Avail: ym(2010, time.March), Cores: 6, ThreadsPerCore: 2, NominalGHz: 3.33,
		TDPWatts: 130, MaxSockets: 1, OpsPerCoreGHz: 16500, FPRatio: 1.00, VectorBits: 128, Popularity: 1},
	{Name: "AMD Athlon 64 X2 5000+", Vendor: model.VendorAMD, Class: model.ClassNonServer,
		Avail: ym(2006, time.May), Cores: 2, ThreadsPerCore: 1, NominalGHz: 2.60,
		TDPWatts: 89, MaxSockets: 1, OpsPerCoreGHz: 7800, FPRatio: 0.95, VectorBits: 128, Popularity: 1},
	{Name: "AMD Ryzen 9 5950X", Vendor: model.VendorAMD, Class: model.ClassNonServer,
		Avail: ym(2020, time.November), Cores: 16, ThreadsPerCore: 2, NominalGHz: 3.40,
		TDPWatts: 105, MaxSockets: 1, OpsPerCoreGHz: 33000, FPRatio: 1.00, VectorBits: 256, Popularity: 1},
}

// Find returns the entry whose name contains the given substring
// (case-insensitive); it errors if zero or several entries match.
func Find(substr string) (CPUSpec, error) {
	var hits []CPUSpec
	needle := strings.ToLower(substr)
	for _, s := range specs {
		if strings.Contains(strings.ToLower(s.Name), needle) {
			hits = append(hits, s)
		}
	}
	switch len(hits) {
	case 0:
		return CPUSpec{}, fmt.Errorf("catalog: no CPU matching %q", substr)
	case 1:
		return hits[0], nil
	default:
		names := make([]string, len(hits))
		for i, h := range hits {
			names[i] = h.Name
		}
		return CPUSpec{}, fmt.Errorf("catalog: %q is ambiguous: %s",
			substr, strings.Join(names, "; "))
	}
}

// ServerParts returns the Intel/AMD server-class entries, the population
// the paper's filtered dataset draws from.
func ServerParts() []CPUSpec {
	var out []CPUSpec
	for _, s := range specs {
		if s.Class.IsServerClass() &&
			(s.Vendor == model.VendorIntel || s.Vendor == model.VendorAMD) {
			out = append(out, s)
		}
	}
	return out
}

// ByVendor returns the server-class entries of one vendor.
func ByVendor(v model.CPUVendor) []CPUSpec {
	var out []CPUSpec
	for _, s := range ServerParts() {
		if s.Vendor == v {
			out = append(out, s)
		}
	}
	return out
}

// AvailableWithin returns server-class entries of the vendor whose
// availability date falls in [from, to].
func AvailableWithin(v model.CPUVendor, from, to model.YearMonth) []CPUSpec {
	var out []CPUSpec
	for _, s := range ByVendor(v) {
		if !s.Avail.Before(from) && !s.Avail.After(to) {
			out = append(out, s)
		}
	}
	return out
}

// NonServerParts returns entries the paper's comparability filters
// remove: non-x86 vendors and desktop-class parts.
func NonServerParts() []CPUSpec {
	var out []CPUSpec
	for _, s := range specs {
		if !s.Class.IsServerClass() ||
			(s.Vendor != model.VendorIntel && s.Vendor != model.VendorAMD) {
			out = append(out, s)
		}
	}
	return out
}
