package report

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
)

func jsonSample() *model.Run {
	r := &model.Run{
		ID:             "power_ssj2008-20230801-00042",
		Accepted:       true,
		TestDate:       model.YM(2023, time.July),
		SubmissionDate: model.YM(2023, time.August),
		HWAvail:        model.YM(2023, time.August),
		SWAvail:        model.YM(2023, time.June),
		SystemVendor:   "Lenovo",
		SystemName:     "SR645 V3",
		CPUName:        "AMD EPYC 9754",
		CPUVendor:      model.VendorAMD,
		CPUClass:       model.ClassEPYC,
		Nodes:          1,
		SocketsPerNode: 2,
		CoresPerSocket: 128,
		ThreadsPerCore: 2,
		TotalCores:     256,
		TotalThreads:   512,
		NominalGHz:     2.25,
		TDPWatts:       360,
		MemGB:          384,
		PSUWatts:       1100,
		OSName:         "SUSE Linux Enterprise Server 15 SP4",
		OSFamily:       model.OSLinux,
		JVM:            "OpenJDK 17",
	}
	for _, load := range model.StandardLoads() {
		u := float64(load) / 100
		r.Points = append(r.Points, model.LoadPoint{
			TargetLoad: load, ActualOps: 1e6 * u, AvgPower: 100 + 600*u,
		})
	}
	return r
}

func TestJSONRoundTrip(t *testing.T) {
	orig := jsonSample()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*model.Run{orig}); err != nil {
		t.Fatal(err)
	}
	var back []JSONRun
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("runs = %d", len(back))
	}
	got := back[0]
	if want := ToJSONRun(orig); !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if got.HWAvail != orig.HWAvail.String() || got.CPUVendor != orig.CPUVendor.String() ||
		got.CPUClass != orig.CPUClass.String() || got.OSFamily != orig.OSFamily.String() {
		t.Errorf("dates or classifications not written as names: %+v", got)
	}
	if len(got.Points) != len(orig.Points) {
		t.Fatalf("points = %d", len(got.Points))
	}
	for i, p := range orig.Points {
		if got.Points[i].SSJOps != p.ActualOps || got.Points[i].AvgWatts != p.AvgPower {
			t.Errorf("point %d drifted", i)
		}
	}
}

func TestJSONFieldNames(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*model.Run{jsonSample()}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"id"`, `"hw_avail"`, `"cpu_vendor"`, `"target_load"`, `"ssj_ops"`,
		`"avg_watts"`, `"Aug-2023"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("json missing %s", want)
		}
	}
}
