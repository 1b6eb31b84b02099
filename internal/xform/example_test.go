package xform_test

import (
	"fmt"

	"tracedst/internal/rules"
	"tracedst/internal/trace"
	"tracedst/internal/xform"
)

// Example demonstrates rewriting a single trace line under the paper's
// Listing 5 rule: the SoA access is renamed, relocated and re-sized for the
// AoS layout.
func Example() {
	rule, err := rules.Parse(`
in:
struct lSoA { int mX[4]; double mY[4]; };
out:
struct lAoS { int mX; double mY; }[4];
`)
	if err != nil {
		panic(err)
	}
	eng, err := xform.New(xform.Options{}, rule)
	if err != nil {
		panic(err)
	}
	rec, err := trace.ParseRecord("S 7ff000390 4 main LS 0 1 lSoA.mX[2]")
	if err != nil {
		panic(err)
	}
	out, err := eng.Transform(&rec)
	if err != nil {
		panic(err)
	}
	fmt.Println(out[0].Site.Var().String())
	// Output: lAoS[2].mX
}

// ExampleEngine_Transform shows the inserted indirection load of the
// outlining rule (Listing 8): one input record becomes two output records.
func ExampleEngine_Transform() {
	rule, err := rules.Parse(`
in:
struct mRarelyUsed { double mY; int mZ; };
struct lS1 { int mFrequentlyUsed; struct mRarelyUsed; }[4];
out:
struct pool { double mY; int mZ; }[4];
struct lS2 { int mFrequentlyUsed; * mRarelyUsed:pool; }[4];
`)
	if err != nil {
		panic(err)
	}
	eng, err := xform.New(xform.Options{}, rule)
	if err != nil {
		panic(err)
	}
	rec, err := trace.ParseRecord("S 7ff000300 8 main LS 0 1 lS1[1].mRarelyUsed.mY")
	if err != nil {
		panic(err)
	}
	out, err := eng.Transform(&rec)
	if err != nil {
		panic(err)
	}
	for _, r := range out {
		fmt.Println(r.Op.String(), r.Site.Var().String())
	}
	// Output:
	// L lS2[1].mRarelyUsed
	// S pool[1].mY
}
