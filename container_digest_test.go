package fixedpsnr_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"fixedpsnr"
	"fixedpsnr/internal/datagen"
)

// containerDigests pins the stream bytes and decoded float64 bits of the
// encode configurations the committed fixtures do not cover: the default
// Workers-derived tiling (one chunk per worker, otc's rounded to its
// block edge), otc under an explicit one-chunk ChunkRows, rank-1
// and rank-2 fields, float64 fields, AutoCapacity, the pointwise-relative
// log-domain container, a grouped (version-4) RegionTargets stream,
// streaming EncodeFrom, and constant fields. The calibrated_* entries
// pin the multi-pass steering path on sparse Hurricane fields: extra
// passes, pinned exact chunks with their explicit bounds, the last pass
// returned when the pass budget runs out, AutoCapacity, float64, a
// warm-started second Encode and PSNR region groups. haar_ratio_w2 and
// otc_regions_psnr70_ratio8 pin the transform pipeline's steered passes:
// fixed ratio on Haar, and a PSNR region over a fixed-ratio background.
// Every config sets
// Workers, so the tiling is machine-independent. Each entry is {SHA-256
// of the stream, decodeDigest of its reconstruction}; neither may change
// without an intentional format change.
var containerDigests = map[string][2]string{
	"calibrated_budget_out_qcloud30": {"713938b2cb67eb27f131149cc7f08232f449f24e215e08b99af3c422d989bf5e", "a1f13e0c2f1ed942e7b2084b94bebb3152c3348e8b8a9080fb98a867972a6917"},
	"calibrated_precip60":            {"a6e36aab5fb2f879bc4f3cc00fff65d105fcc39444f063dc47f8cee04eee41e3", "43c0d45fb718915c366713476125e06f880fda872b37b3a437f2a4fc38cbdff9"},
	"calibrated_pinned_qcloud60":     {"e7d8eb61e06e116cb0dfece576ea304d270eef29a7c0abc78933ae6e90c6d9fe", "5dc71a0a429806ffd893146ef58fad240c2fdee2974bd147c6a1951aacef0256"},
	"calibrated_auto_capacity":       {"7dea18a1175408cf123708bc8d5a4d09273ddbafd9ea43898d173232cac621a3", "acb3532cb94fac7f91dd81d16f976ee667c7a43e37df00029599bd1382bd2d8e"},
	"calibrated_f64_qrain45":         {"a1810ae0d67e6dd2e4bc25dde90afbea7bb162c10bf6b82157f3241654190d5b", "81ee2eadb68c6bd2a676f1504a99f0e604642cc5ee951c8b40684e3e4f86e2bf"},
	"calibrated_warm_qsnow30":        {"974364103d935b4584f97f9ebe02935331fec1272251ad0c02ac1df71fda8a44", "bf1c70e6196c536718143b9799faa3b9a687eaf67d09d516b4b3e566dd421d56"},
	"calibrated_regions_psnr":        {"8d8afa00d2940ff881af34cb140c82770aeca544ab493f267c30fc9607b3ed4f", "8e4ba125427c545a3a30a430bf6c3c7042c0765aaed02f86f1af6b87f98c63a9"},
	"auto_capacity_w2":               {"0cc128dde57591b813b3e083032d6bb8b7d8912ad796417b3c8412de923b5878", "b67bb8e8f308fc6f45ab0a152595629c5212872a603010f1b54f0ab3d26e3232"},
	"const_compress_otc":             {"b6083851ca5019bb41e9d80dd746abef956ec9677b7117a056dfc549a782ff2f", "4d6e46de815bd1c47c3b9799ed5bc10011d8a0d2e1331a834c7bfe063654a020"},
	"const_compress_sz":              {"b6083851ca5019bb41e9d80dd746abef956ec9677b7117a056dfc549a782ff2f", "4d6e46de815bd1c47c3b9799ed5bc10011d8a0d2e1331a834c7bfe063654a020"},
	"const_encodefrom":               {"b6083851ca5019bb41e9d80dd746abef956ec9677b7117a056dfc549a782ff2f", "4d6e46de815bd1c47c3b9799ed5bc10011d8a0d2e1331a834c7bfe063654a020"},
	"encodefrom_otc_bs6":             {"70067f2026d764c469ff71c6be2e5fe9974ec26af5e27e6dc570cf203a29339e", "0689aa33a6795d90761c77853a351226c02ed12eaed4942976c0db094f43fa61"},
	"encodefrom_sz_default_w4":       {"773e9f95daf9e6b0f5cf4b368e998f4dbf21964f7ef86ae7a3fbfd29123cbe65", "da6162eee88e32b3944db401d2fbfd5bbb5158b9730ac0c04f7a41481fa463c6"},
	"f64_rank3_psnr_w2":              {"e22f1e1922202268c11bc562b85c6a36e647da9a35447eab96255cb71333a656", "0b1308f9a20abdd292700dc08c836d53a5923ec1ef41bb1baab86faf32a09678"},
	"haar_ratio_w2":                  {"5865d7e1781b18b45e146260baa51773a249ab697c0ce163896671e402e50c9d", "cdac16777b3d56e7ee4acf7962f1a3132120ea207e88ad4e557ac5846068a604"},
	"otc_default_ratio_w2":           {"c8f8b4b5c9082e8ab5cd901d742b6b1162fa86570957770334a7df879f58dabd", "f4968405d76cf8e5cd3afaa2a97190c5bcf222545e31a85c3e20a9e207ce4bd4"},
	"otc_default_psnr_w4":            {"4b6d38d5ef61944444f29a098a82ac0c412080365e67ef9ede4fb1541f51d36e", "09a4a0cf523fefe817b78bd865f2220e05962f09468e327780cea5d85f4e5a17"},
	"otc_tiled_ratio_w2":             {"0746649d1c399c6cee9203e24102548212fce40f6fb6d05accea58f695bc587d", "641dcb56f2a55c4ed707c285da5ee1938f1a9bdba9ec4447fe68b02c7278bf92"},
	"otc_regions_psnr70_ratio8":      {"23a8df84ad2bad102e28eeeb3fcfaee28bdccfc04907fdf6ad0f2725a2a45162", "dcc3bc1230eea24e2ccd98c5ac39ca8f7a8bed761ef4a86c1242b2dec31c3a9b"},
	"otc_tiled_psnr_w4":              {"c020f431000c2d130593c61a22012046bc64c1408827ceccd1cc2b144909dcd5", "09a4a0cf523fefe817b78bd865f2220e05962f09468e327780cea5d85f4e5a17"},
	"pwrel_w2":                       {"ab9be5d052337367e15301206a7e1efa0af5eec4f6ef3cac5f16d4061ab704a2", "22202c514caeef16f6c19613efa2ed384f16e593841d09c7356cbaf491beaf36"},
	"rank1_abs_w4":                   {"89b878a4cf9bd718356db487b5a2ff3619ef7c32cfada03e1ce6d8c644660e75", "fd3eb6519743bc729f7a2f7b1a84a9a68fadfec741d9c9a71663c987195e56b8"},
	"rank2_otc_chunked_w2":           {"470a6e18994f4d94fa9e79135e7b97607c3cc3cd4ade56d7fd3c6c9fd429e9cf", "ea82cb8a4c76880f1d0ee94306b2f41fd78b0929d72e780df3a0c1df7fcfcb6f"},
	"rank2_rel_w2":                   {"2d3f003c7f083c797c98815cf2e282ff4378450f595aad3adbb94465f9fb91fc", "9c3b8486481875c3a73aeb87b1dc9fd0809315836a054624c297dee82a50ade5"},
	"regions_grouped_w2":             {"d5f4859864ae146fccf4873b6064f668e27e8942542df405852497498db71489", "f18987cf502b91ed733c2a34aa93aaace76c70d6df132198b9c64466d279e5a9"},
	"sz_default_calibrated_w1":       {"d859cf778afbce62ec5a33fdfb988c61e014b806190db08dcec611964d08dfb5", "c94e0ce1f7ae4b4bd7d600261202a1f6ee304e559cfb98b3c10e6a375e5d61b5"},
	"sz_default_calibrated_w2":       {"f3c5b20dbabb742da54f28798002daffa7387f1d4dca4f0366cc76daae86ea76", "c1f502596a02398401216ebe8660af349c15638311564b003f0aab7645620660"},
	"sz_default_ratio_w4":            {"4ce9e51c6050c9ba3bb841b04e0104b5522285c182cb5953bf187a724660d62f", "29dcfa50116c7436fe34e5b28cee420201ec86d02ee50aef3e900c4394786b3d"},
}

// containerCase is one pinned encode: a field, its options, and whether
// it goes through Encoder.EncodeFrom instead of Compress.
type containerCase struct {
	field  func() *fixedpsnr.Field
	opt    fixedpsnr.Options
	stream bool
	// warm encodes the field twice through one Encoder and pins the
	// second stream, whose first pass starts at the bound the first
	// encode settled on.
	warm bool
	// chunks and version are the stream shape the case must produce, so
	// a digest always pins the tiling its name claims; passes is the
	// Result.Passes it must report, so a multi-pass pin cannot silently
	// become a one-pass encode; explicit counts the chunk entries that
	// carry their own bound instead of the header's.
	chunks   int
	version  uint8
	passes   int
	explicit int
}

// hurricaneField is the Hurricane field name on a 16×64×64 grid
// (salt "digest"), stored at prec, with its first zeroRows rows set to
// zero so the chunks covering them are exact at any bound.
func hurricaneField(name string, prec fixedpsnr.Precision, zeroRows int) func() *fixedpsnr.Field {
	return func() *fixedpsnr.Field {
		ds := datagen.Hurricane([]int{16, 64, 64})
		for _, spec := range ds.Specs {
			if spec.Name != name {
				continue
			}
			f, err := datagen.Synthesize("digest", spec, ds.Dims, 2)
			if err != nil {
				panic(err)
			}
			f.Precision = prec
			clear(f.Data[:zeroRows*64*64])
			return f
		}
		panic("no Hurricane field " + name)
	}
}

func containerCases() map[string]containerCase {
	rank3 := func() *fixedpsnr.Field { return fixtureField("r3", fixedpsnr.Float32, 64, 64, 16) }
	rank3f64 := func() *fixedpsnr.Field { return fixtureField("r3d", fixedpsnr.Float64, 40, 48, 24) }
	rank2 := func() *fixedpsnr.Field { return fixtureField("r2", fixedpsnr.Float32, 200, 180) }
	rank1 := func() *fixedpsnr.Field { return fixtureField("r1", fixedpsnr.Float64, 50000) }
	constant := func() *fixedpsnr.Field {
		f := fixedpsnr.NewField("c", fixedpsnr.Float32, 24, 20, 16)
		for i := range f.Data {
			f.Data[i] = 2.5
		}
		return f
	}
	signed := func() *fixedpsnr.Field {
		f := fixtureField("pw", fixedpsnr.Float32, 32, 40, 24)
		for i := range f.Data {
			if i%97 == 0 {
				f.Data[i] = 0
			}
		}
		return f
	}
	psnr := func(db float64, calibrated bool, workers int) fixedpsnr.Options {
		return fixedpsnr.Options{Mode: fixedpsnr.ModePSNR, TargetPSNR: db, Calibrated: calibrated, Workers: workers}
	}
	ratio := func(r float64, c fixedpsnr.Compressor, workers int) fixedpsnr.Options {
		return fixedpsnr.Options{Mode: fixedpsnr.ModeRatio, TargetRatio: r, Compressor: c, Workers: workers}
	}
	otcPSNR := psnr(70, false, 4)
	otcPSNR.Compressor = fixedpsnr.CompressorTransform
	// The field's 64 rows as one chunk: the tiling otc's default gave
	// before it followed Workers.
	otcRatio1, otcPSNR1 := ratio(8, fixedpsnr.CompressorTransform, 2), otcPSNR
	otcRatio1.ChunkRows, otcPSNR1.ChunkRows = 64, 64
	auto := psnr(75, false, 2)
	auto.AutoCapacity = true
	rank2otc := fixedpsnr.Options{
		Mode: fixedpsnr.ModeAbs, ErrorBound: 1e-3, Compressor: fixedpsnr.CompressorTransform,
		ChunkPoints: fixedpsnr.MinChunkPoints, Workers: 2,
	}
	regions := fixedpsnr.Options{
		Mode: fixedpsnr.ModeRatio, TargetRatio: 12,
		RegionTargets: []fixedpsnr.RegionTarget{{
			Region: fixedpsnr.Region{Off: []int{16, 0, 0}, Ext: []int{16, 64, 16}},
			Mode:   fixedpsnr.ModePSNR, TargetPSNR: 80,
		}},
		ChunkPoints: fixedpsnr.MinChunkPoints, Workers: 2,
	}
	bs6 := fixedpsnr.Options{
		Mode: fixedpsnr.ModePSNR, TargetPSNR: 60, Compressor: fixedpsnr.CompressorTransform,
		BlockSize: 6, ChunkPoints: fixedpsnr.MinChunkPoints, Workers: 2,
	}
	constOTC := psnr(60, false, 2)
	constOTC.Compressor = fixedpsnr.CompressorTransform
	pinned := psnr(60, true, 2)
	pinned.ChunkRows = 4
	autoCal := psnr(45, true, 2)
	autoCal.AutoCapacity = true
	// A PSNR region over a ratio background on otc: the region takes its
	// own first pass, the background is steered on its payload bytes.
	otcRegions := ratio(8, fixedpsnr.CompressorTransform, 2)
	otcRegions.ChunkRows = 4
	otcRegions.RegionTargets = []fixedpsnr.RegionTarget{{
		Region: fixedpsnr.Region{Off: []int{4, 0, 0}, Ext: []int{4, 64, 64}},
		Mode:   fixedpsnr.ModePSNR, TargetPSNR: 70,
	}}
	regionsPSNR := psnr(30, true, 2)
	regionsPSNR.ChunkRows = 4
	regionsPSNR.RegionTargets = []fixedpsnr.RegionTarget{{
		Region: fixedpsnr.Region{Off: []int{4, 0, 0}, Ext: []int{4, 64, 64}},
		Mode:   fixedpsnr.ModePSNR, TargetPSNR: 60,
	}}
	return map[string]containerCase{
		"sz_default_calibrated_w1": {field: rank3, opt: psnr(60, true, 1), chunks: 1, version: 3},
		"sz_default_calibrated_w2": {field: rank3, opt: psnr(90, true, 2), chunks: 2, version: 3},
		"sz_default_ratio_w4":      {field: rank3, opt: ratio(16, fixedpsnr.CompressorSZ, 4), chunks: 4, version: 3, passes: 3},
		"otc_default_ratio_w2":     {field: rank3, opt: otcRatio1, chunks: 1, version: 3, passes: 3},
		"otc_default_psnr_w4":      {field: rank3, opt: otcPSNR1, chunks: 1, version: 3},
		"otc_tiled_ratio_w2":       {field: rank3, opt: ratio(8, fixedpsnr.CompressorTransform, 2), chunks: 2, version: 3, passes: 4},
		"otc_tiled_psnr_w4":        {field: rank3, opt: otcPSNR, chunks: 4, version: 3},
		"haar_ratio_w2":            {field: rank3, opt: ratio(8, fixedpsnr.CompressorWavelet, 2), chunks: 2, version: 3, passes: 2},
		"f64_rank3_psnr_w2":        {field: rank3f64, opt: psnr(70, true, 2), chunks: 2, version: 3},
		"auto_capacity_w2":         {field: rank3, opt: auto, chunks: 2, version: 3},
		"rank1_abs_w4":             {field: rank1, opt: fixedpsnr.Options{Mode: fixedpsnr.ModeAbs, ErrorBound: 1e-4, Workers: 4}, chunks: 4, version: 3},
		"rank2_rel_w2":             {field: rank2, opt: fixedpsnr.Options{Mode: fixedpsnr.ModeRel, RelBound: 1e-4, Workers: 2}, chunks: 2, version: 3},
		"rank2_otc_chunked_w2":     {field: rank2, opt: rank2otc, chunks: 3, version: 3},
		"pwrel_w2":                 {field: signed, opt: fixedpsnr.Options{Mode: fixedpsnr.ModePWRel, PWRelBound: 1e-3, Workers: 2}, chunks: 1, version: 3},
		"regions_grouped_w2":       {field: rank3, opt: regions, chunks: 4, version: 4, passes: 3, explicit: 4},
		"encodefrom_otc_bs6":       {field: rank3, opt: bs6, stream: true, chunks: 4, version: 3},
		"encodefrom_sz_default_w4": {field: rank3, opt: psnr(70, false, 4), stream: true, chunks: 1, version: 3},
		"const_compress_sz":        {field: constant, opt: psnr(60, false, 2), chunks: 0, version: 3},
		"const_compress_otc":       {field: constant, opt: constOTC, chunks: 0, version: 3},
		"const_encodefrom":         {field: constant, opt: psnr(60, false, 2), stream: true, chunks: 0, version: 3},

		"calibrated_budget_out_qcloud30": {field: hurricaneField("QCLOUD", fixedpsnr.Float32, 0), opt: psnr(30, true, 2), chunks: 2, version: 3, passes: 4},
		"calibrated_precip60":            {field: hurricaneField("PRECIP", fixedpsnr.Float32, 0), opt: psnr(60, true, 2), chunks: 2, version: 3, passes: 3},
		"calibrated_pinned_qcloud60":     {field: hurricaneField("QCLOUD", fixedpsnr.Float32, 4), opt: pinned, chunks: 4, version: 3, passes: 4, explicit: 1},
		"calibrated_auto_capacity":       {field: hurricaneField("QCLOUD", fixedpsnr.Float32, 0), opt: autoCal, chunks: 2, version: 3, passes: 3},
		"calibrated_f64_qrain45":         {field: hurricaneField("QRAIN", fixedpsnr.Float64, 0), opt: psnr(45, true, 2), chunks: 2, version: 3, passes: 3},
		"calibrated_warm_qsnow30":        {field: hurricaneField("QSNOW", fixedpsnr.Float32, 0), opt: psnr(30, true, 2), warm: true, chunks: 2, version: 3, passes: 4},
		"calibrated_regions_psnr":        {field: hurricaneField("PRECIP", fixedpsnr.Float32, 0), opt: regionsPSNR, chunks: 4, version: 4, passes: 5, explicit: 4},
		"otc_regions_psnr70_ratio8":      {field: hurricaneField("PRECIP", fixedpsnr.Float32, 0), opt: otcRegions, chunks: 4, version: 4, passes: 3, explicit: 4},
	}
}

// TestContainerDigests encodes every containerCases config and compares
// the stream bytes and the decoded bits against containerDigests.
func TestContainerDigests(t *testing.T) {
	cases := containerCases()
	if len(cases) != len(containerDigests) {
		t.Fatalf("%d cases for %d pinned digests", len(cases), len(containerDigests))
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			f := tc.field()
			var blob []byte
			var res *fixedpsnr.Result
			var err error
			switch {
			case tc.stream:
				var enc *fixedpsnr.Encoder
				if enc, err = fixedpsnr.NewEncoder(fixedpsnr.WithOptions(tc.opt)); err != nil {
					t.Fatal(err)
				}
				blob, res, err = enc.EncodeFrom(context.Background(), fixedpsnr.NewFieldReader(f))
			case tc.warm:
				var enc *fixedpsnr.Encoder
				if enc, err = fixedpsnr.NewEncoder(fixedpsnr.WithOptions(tc.opt)); err != nil {
					t.Fatal(err)
				}
				if _, _, err = enc.Encode(context.Background(), f); err != nil {
					t.Fatal(err)
				}
				blob, res, err = enc.Encode(context.Background(), f)
			default:
				blob, res, err = fixedpsnr.Compress(f, tc.opt)
			}
			if err != nil {
				t.Fatal(err)
			}
			dec, _, err := fixedpsnr.Decompress(blob)
			if err != nil {
				t.Fatal(err)
			}
			h, err := fixedpsnr.Inspect(blob)
			if err != nil {
				t.Fatal(err)
			}
			if len(h.Chunks) != tc.chunks || h.Version != tc.version {
				t.Fatalf("stream v%d with %d chunks, want v%d with %d", h.Version, len(h.Chunks), tc.version, tc.chunks)
			}
			explicit := 0
			for _, c := range h.Chunks {
				if c.EbAbs != 0 {
					explicit++
				}
			}
			if explicit != tc.explicit {
				t.Fatalf("%d chunk entries carry their own bound, want %d", explicit, tc.explicit)
			}
			if want := max(tc.passes, 1); res.Passes != want {
				t.Fatalf("Result.Passes = %d, want %d", res.Passes, want)
			}
			sum := sha256.Sum256(blob)
			got := [2]string{hex.EncodeToString(sum[:]), decodeDigest(dec)}
			if want := containerDigests[name]; got != want {
				t.Fatalf("digests %q: {%q, %q}, pinned {%q, %q}", name, got[0], got[1], want[0], want[1])
			}
		})
	}
}
