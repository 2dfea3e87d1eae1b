package scenario

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// The paper families' fingerprints at scale 0.1 and DefaultSeed, pinned:
// an engine or family change that moves any paper number has to update
// these on purpose.
var paperGoldens = map[string]string{
	"fig4a":                   "536c19cf85a23a8d8fe169fecd148517763f92da5567155783efef7be62f0ed0",
	"fig4b":                   "3d17204b3d6436eab1943140ff4d312399b9ab5b7221c8fa28a704a990fe9920",
	"fig4c":                   "c9fb35d1d009a216bd44aa9398abf8c8248d6605c5b237776a5754adf1c9db6d",
	"fig5":                    "c6de072c58bcb3ef7bb52c32f67b9be38c84e4b8b5c8e9271646b400fc1ea3ca",
	"fig6":                    "9859fcf279ca3be0f8819a978a28c572eb2c10eb7af82c0c088b3b993c5951e0",
	"fig7a":                   "ca6a367dad18e00f0fb1a22693a22fb413580147ef708cdd92d488a13a9e834c",
	"fig7b":                   "8df115cde435b102ee7be6c129a43a720d8a1ecf8d464583afd51b3f65233e0f",
	"fig7c":                   "6e6174266e401270f81a6067f2b0eb50761d9bacf6e4f2d5d9c03e9275f40e32",
	"fig8":                    "3696b4d5b11f7ff65a9b2ddddc6173cef36ae0e670f7fbfddb1162074007338f",
	"fig9a":                   "548532630c953f65b09a45281a427a9e9cacfe226b9b5b37beb7d2e8db7c0e07",
	"fig9b":                   "9e04e4191074a282055717934a0f9256ae57f5bdfe887c0c93d6c9da4e8152bc",
	"fig9c":                   "2cd87631d7c7bfc972a917aade034afe16bc01c1431045481f19e21218279094",
	"fig10":                   "1156e3e70cf32e48724194fc7d99435fa097aff6c82b2276f56f973450fee1ef",
	"ablation-alpha":          "59d6711734566ba2d16566c206ab3104b5e19d25b78bb8952636cc4f04119325",
	"ablation-steal":          "d5cae211aae877b500906532ccebefd9b2e7acc4782ac810d79af43e5ba4dc7a",
	"ablation-wake":           "187d7d714c2e4a1aabf02506124079e904c0f7740b37d33c24d6c8af7a4c997d",
	"ablation-dheft":          "67e04f1bfe2ed8b5ec6270719784b70bccce9c16d2cba8193d7b5e04cbc74cd6",
	"ablation-sampled":        "35cdc598e9a7312bc35b387e111d24043af7406d4feb5144742baffab6f78f1f",
	"ablation-width-cap1":     "8532ef1f09f5089a351e1bd33cec98f62e70a18a74cd116683e8b46e3a2398a0",
	"ablation-width-cap0":     "370f32da0d8bc22cdb518f77b4c77c075888ad62b2176acd1f70ca2e55713cbd",
	"ablation-infer-user":     "60977c0d90acb5d6b3863f2750781da4902fd8edef6e67df80747c366d9420c8",
	"ablation-infer-inferred": "055af794ff8b9849815dd21da3694b04f88fa19b8490e6a616ab024217cf6d0f",
	"ablation-infer-none":     "a826c48f20347ec513a1675587f0346d63b92c4f9b744d22a1c921f63e0c3d7b",
}

func TestPaperFamilyGoldens(t *testing.T) {
	for name, want := range paperGoldens {
		t.Run(name, func(t *testing.T) {
			f, ok := Lookup(name)
			if !ok {
				t.Fatalf("family %q not registered", name)
			}
			res, err := Run(f.Spec(0.1, DefaultSeed))
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Fingerprint()))); got != want {
				t.Errorf("fingerprint sha256 %s, want %s", got, want)
			}
		})
	}
}
