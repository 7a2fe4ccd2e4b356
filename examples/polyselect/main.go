// Polynomial selection for a custom protocol (paper §5: "identifying
// optimal polynomials that are customized to the particular message lengths
// of specific applications"). Ranks the paper's Table 1 polynomials for
// three application profiles and runs a small exhaustive search for an
// embedded 12-bit CRC.
package main

import (
	"context"
	"fmt"
	"log"

	"koopmancrc"
)

func main() {
	// Short frames rank all eight Table 1 polynomials; the longer profiles
	// use a shortlist because coverage exploration at 32K-bit boundaries
	// costs tens of seconds per HD=6 candidate.
	apps := []struct {
		name       string
		bits       int
		candidates []koopmancrc.Polynomial
	}{
		{"TCP ack (40 B)", 400, koopmancrc.Table1Polynomials()},
		{"512 B storage block", 4496, []koopmancrc.Polynomial{
			koopmancrc.IEEE8023, koopmancrc.CastagnoliISCSI,
			koopmancrc.Koopman32K, koopmancrc.CastagnoliHD5,
		}},
		{"Ethernet MTU frame", 12112, []koopmancrc.Polynomial{
			koopmancrc.IEEE8023, koopmancrc.CastagnoliISCSI, koopmancrc.Koopman32K,
		}},
	}
	ctx := context.Background()
	for _, app := range apps {
		ranked, err := koopmancrc.Select(ctx, app.candidates, app.bits, koopmancrc.WithMaxHD(8))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (%d data bits):\n", app.name, app.bits)
		for i, s := range ranked[:3] {
			fmt.Printf("  %d. %v  HD=%d holds to %d bits\n", i+1, s.Poly, s.HD, s.CoverageAtHD)
		}
	}

	// An embedded network with 48-bit frames wants the best 12-bit CRC:
	// search the whole width-12 design space (2^11 candidates) for the
	// highest HD at 48 bits.
	fmt.Println("\nexhaustive width-12 search for 48-bit frames:")
	for hd := 6; hd >= 4; hd-- {
		res, err := koopmancrc.Search(ctx, koopmancrc.SearchConfig{
			Width: 12, MinHD: hd, Lengths: []int{16, 48},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  HD>=%d at 48 bits: %d of %d candidates", hd, len(res.Survivors), res.Candidates)
		if len(res.Survivors) > 0 {
			fmt.Printf(" — e.g. %v", res.Survivors[0])
			fmt.Printf(" (census %v)", res.CensusByShape)
			fmt.Println()
			break
		}
		fmt.Println()
	}
}
