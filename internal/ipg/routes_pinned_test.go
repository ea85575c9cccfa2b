package ipg

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"repro/internal/bag"
	"repro/internal/gen"
	"repro/internal/perm"
)

// pinnedShape is one game whose every route is pinned: star is the k-star
// game (bag's one-box transposition game, l = 1 and n = k-1), otherwise SIP(l,n) under the
// rules (ipg's Solve).
type pinnedShape struct {
	star  bool
	rules bag.Rules
}

func (p pinnedShape) name() string {
	game := "sip"
	if p.star {
		game = "star"
	}
	ly := p.rules.Layout
	return fmt.Sprintf("%s/%d,%d/%s/%s", game, ly.L, ly.N, p.rules.Nucleus, p.rules.Super)
}

// pinnedShapes lists the SIP shapes under every valid rule set and the
// star games for k = 2..9, dropping those with k >= 9 when small is set.
func pinnedShapes(small bool) []pinnedShape {
	keep := func(ly bag.Layout) bool { return !small || ly.K() < 9 }
	var out []pinnedShape
	nuclei := []bag.NucleusStyle{bag.TranspositionNucleus, bag.InsertionNucleus}
	supers := []bag.SuperStyle{bag.SwapSuper, bag.RotSingleSuper, bag.RotPairSuper, bag.RotCompleteSuper}
	for _, ln := range [][2]int{{2, 1}, {3, 1}, {4, 1}, {5, 1}, {6, 1}, {2, 2}, {3, 2}, {2, 3}, {4, 2}, {2, 4}, {3, 3}} {
		ly := bag.MustLayout(ln[0], ln[1])
		if !keep(ly) {
			continue
		}
		for _, nu := range nuclei {
			for _, su := range supers {
				out = append(out, pinnedShape{rules: bag.Rules{Layout: ly, Nucleus: nu, Super: su}})
			}
		}
	}
	for _, n := range []int{1, 2, 3, 5, 7} {
		ly := bag.MustLayout(1, n)
		if !keep(ly) {
			continue
		}
		for _, nu := range nuclei {
			out = append(out, pinnedShape{rules: bag.Rules{Layout: ly, Nucleus: nu, Super: bag.NoSuper}})
		}
	}
	for k := 2; k <= 9; k++ {
		ly := bag.MustLayout(1, k-1)
		if keep(ly) {
			out = append(out, pinnedShape{star: true, rules: bag.Rules{Layout: ly, Nucleus: bag.TranspositionNucleus, Super: bag.NoSuper}})
		}
	}
	return out
}

// writeRoute adds one route to h: each move's name and a space, then a
// newline.
func writeRoute(h hash.Hash, moves []gen.Generator) {
	for _, g := range moves {
		h.Write([]byte(g.Name()))
		h.Write([]byte{' '})
	}
	h.Write([]byte{'\n'})
}

// routesHash returns the SHA-256 of the routes of every state of p's game,
// in rank order: SIP labels by Signature.Rank, star states by perm.Rank.
func routesHash(t *testing.T, p pinnedShape) string {
	h := sha256.New()
	ly := p.rules.Layout
	if p.star {
		var sc bag.Scratch
		for r := int64(0); r < perm.Factorial(ly.K()); r++ {
			moves, err := sc.Solve(p.rules, perm.Unrank(ly.K(), r))
			if err != nil {
				t.Fatal(err)
			}
			writeRoute(h, moves)
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	sig, err := SIPSignature(ly.L, ly.N)
	if err != nil {
		t.Fatal(err)
	}
	order, err := sig.Order()
	if err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < order; r++ {
		u, err := sig.Unrank(r)
		if err != nil {
			t.Fatal(err)
		}
		moves, err := Solve(p.rules, u)
		if err != nil {
			t.Fatalf("%s: %v: %v", p.name(), u, err)
		}
		writeRoute(h, moves)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRoutesPinned holds the route of every state of 16 SIP shapes (every
// valid rule set) and of the k-star game for k = 2..9 to a SHA-256 of its
// move names, recorded from ipg's own multiset solver and bag's own star
// loop before both became games on bag's engine. The k >= 9 shapes are
// left out under -short and -race.
func TestRoutesPinned(t *testing.T) {
	shapes := pinnedShapes(testing.Short() || raceEnabled)
	for _, p := range shapes {
		got := routesHash(t, p)
		want, ok := pinnedRoutes[p.name()]
		switch {
		case !ok:
			t.Errorf("%s: not pinned; got\n\t%q: %q,", p.name(), p.name(), got)
		case got != want:
			t.Errorf("%s: routes hash to %s, pinned %s", p.name(), got, want)
		}
	}
	if n := len(pinnedShapes(false)); n != len(pinnedRoutes) {
		t.Errorf("%d shapes, %d pinned", n, len(pinnedRoutes))
	}
}

// pinnedRoutes maps each shape's name to the SHA-256 of its routes.
var pinnedRoutes = map[string]string{
	"sip/2,1/transposition/swap":         "aad06ccf4fd7026b61beae322879c71dc1c745fc490daabbf6f55f11a935db92",
	"sip/2,1/transposition/rot-single":   "a0baaf43734559d214271b61487dffee614b16f99c056f94023535b5de57769c",
	"sip/2,1/transposition/rot-pair":     "a0baaf43734559d214271b61487dffee614b16f99c056f94023535b5de57769c",
	"sip/2,1/transposition/rot-complete": "a0baaf43734559d214271b61487dffee614b16f99c056f94023535b5de57769c",
	"sip/2,1/insertion/swap":             "9fe35fb8720cb3ce4b860bde583c4e616c92683545ebc7b55d6d0e1dcb5a8cfc",
	"sip/2,1/insertion/rot-single":       "23f60e79422fe672b4713be24ee34d2df6695df9b8fd43ad0026368876dd1ea1",
	"sip/2,1/insertion/rot-pair":         "23f60e79422fe672b4713be24ee34d2df6695df9b8fd43ad0026368876dd1ea1",
	"sip/2,1/insertion/rot-complete":     "23f60e79422fe672b4713be24ee34d2df6695df9b8fd43ad0026368876dd1ea1",
	"sip/3,1/transposition/swap":         "cca9b3f9c8fe6f9c6f923f6d5de4b62983f29cf34420e35a39d2120821873672",
	"sip/3,1/transposition/rot-single":   "ae4d007d82d9f832808d002935b5e5fd445f14614965f5f1af073d6101be087f",
	"sip/3,1/transposition/rot-pair":     "0364a609c8291a5f7b24d517ba01f80bd78c4181209b1f2855aa500506eafc5b",
	"sip/3,1/transposition/rot-complete": "0364a609c8291a5f7b24d517ba01f80bd78c4181209b1f2855aa500506eafc5b",
	"sip/3,1/insertion/swap":             "051e17e28c1807de88b6a48fc35346018934a7d790cefead297d352b12008c38",
	"sip/3,1/insertion/rot-single":       "dc37fdea1651e0af29201aafb6c60638272270ce284cb21afebe4d2291f18c45",
	"sip/3,1/insertion/rot-pair":         "4c8ce149ccf700f9dcd79c17c324fb39b28fa086c3da476b903df37e6670b19d",
	"sip/3,1/insertion/rot-complete":     "4c8ce149ccf700f9dcd79c17c324fb39b28fa086c3da476b903df37e6670b19d",
	"sip/4,1/transposition/swap":         "69443936eb34fd1bf69686e52d967dfa8d7a02d5b5453729db4d16288b3de15e",
	"sip/4,1/transposition/rot-single":   "eb5299227c6b9552f60dfc198499136078e60afd74c918973bb65c4766199f97",
	"sip/4,1/transposition/rot-pair":     "e0a2bbcb786e0abaa234fe2c8f376b27fbf12e1d2e54f5d705bb59af46bbe8fc",
	"sip/4,1/transposition/rot-complete": "55f52ebcc78e26bf342958a0200161c50569ce0260d3b2aca518d7f4f8e37b87",
	"sip/4,1/insertion/swap":             "db03d66222d78f399cfa6366dbbddaa9aa3f37047da349b453bc770ca0f540e0",
	"sip/4,1/insertion/rot-single":       "c9787496d3547528d2778e44a9c02e25d61c240dda975d8c9808ee482b50caea",
	"sip/4,1/insertion/rot-pair":         "982a59bc9262789fb23835441f21c8b877d80deca1aca7b9cf6e46878be52f00",
	"sip/4,1/insertion/rot-complete":     "17aa1ace84c336e9e6a515f90623f1dc623e91031b6f7a8e50d96b740d99adb5",
	"sip/5,1/transposition/swap":         "68d0f94994bf2b634b862dc9c8969cb34fdad91c078768f4e7a73655262f70d3",
	"sip/5,1/transposition/rot-single":   "e5f8c3adc3e0087aa7436941c62c0e357f304c1086564759ac0aeebaab9ee15b",
	"sip/5,1/transposition/rot-pair":     "7218d714eef5aaf58c239f4551d860a300263f0226aa21fc8352cb86b3a4ad16",
	"sip/5,1/transposition/rot-complete": "a5410b68b379f6f8e8ca5fcbb5d8439f1b13505e2a4a5aac2946b3904bece5c3",
	"sip/5,1/insertion/swap":             "31d2bd7bdc3c97c85dacac87a61ebe25e24defe76013577d371666328977c874",
	"sip/5,1/insertion/rot-single":       "704b51e3f1103d012d00652d37bb10bebdd4d311b21b1f529dcc79ad008e8a25",
	"sip/5,1/insertion/rot-pair":         "ecca7b4c30a16dc6527605575068cb9316435bde48134ef9e5d583f80bbe66ed",
	"sip/5,1/insertion/rot-complete":     "cbb8d2eb2ecb69707523b49e6a6b6135cb8da607bae564d6aa77359ff4497759",
	"sip/6,1/transposition/swap":         "5a36a51f21a6389df480d12581d2464779cb57c45fc5a6a636a6b8e5f62996c5",
	"sip/6,1/transposition/rot-single":   "4638f39912993121b9bf0c8ed521ce4c6c518f9bf4e20b160e7cad5d81052765",
	"sip/6,1/transposition/rot-pair":     "6e175b163b779f5370e6116a8db2c289cbdeb34000834d289741c56259f9ef00",
	"sip/6,1/transposition/rot-complete": "62089992aaabb7a6fc539e985b7360cea4e7676f1838da8e222de6fc9c63c116",
	"sip/6,1/insertion/swap":             "e329a3e64fb0489628f0e1de2bc2ebe771d558d9f09bd18ff6d1a0cd69701c2e",
	"sip/6,1/insertion/rot-single":       "b0017a12531747cdf8344d0381ca7c66d7244ce07d457a1bd63173bb06932928",
	"sip/6,1/insertion/rot-pair":         "d177c44d045f78cf685090fd54f9cb9c288922944a12e4859c6410e9d06ed883",
	"sip/6,1/insertion/rot-complete":     "a70d800a3aa4a3e9f09d5018874471f48aaa9d060f8aef30ed695c96aee8e936",
	"sip/2,2/transposition/swap":         "38a34310202d4e30a845b802fc3eadc79b8a1347f366d38bfc2f2d8303bb908d",
	"sip/2,2/transposition/rot-single":   "8c8c48b2ef45a50334688a6ec6117cdad0e9a004a9cc0087d6e8cf4a49ffb552",
	"sip/2,2/transposition/rot-pair":     "8c8c48b2ef45a50334688a6ec6117cdad0e9a004a9cc0087d6e8cf4a49ffb552",
	"sip/2,2/transposition/rot-complete": "8c8c48b2ef45a50334688a6ec6117cdad0e9a004a9cc0087d6e8cf4a49ffb552",
	"sip/2,2/insertion/swap":             "7bbcdfa864a331a6803d32a1bf9c20c65d94048fd46ec3e907a67567d9829f78",
	"sip/2,2/insertion/rot-single":       "3b0d946611fa6ab845a66557b7688df35d10c006ff56652a68c55ea2467ac3f6",
	"sip/2,2/insertion/rot-pair":         "3b0d946611fa6ab845a66557b7688df35d10c006ff56652a68c55ea2467ac3f6",
	"sip/2,2/insertion/rot-complete":     "3b0d946611fa6ab845a66557b7688df35d10c006ff56652a68c55ea2467ac3f6",
	"sip/3,2/transposition/swap":         "e40cde10631e7e84371ae8500c952d69891781a4e0af7332f5351dcd063eddc9",
	"sip/3,2/transposition/rot-single":   "6b224c500a6ae7dfdf9f553b7af62467002d71a2aaaf15122ac70ede0e4bb71c",
	"sip/3,2/transposition/rot-pair":     "6c3937cf97f7f937a5651179733fa93990f91a26813495c915272edc40b0ad75",
	"sip/3,2/transposition/rot-complete": "6c3937cf97f7f937a5651179733fa93990f91a26813495c915272edc40b0ad75",
	"sip/3,2/insertion/swap":             "92803c1a34f2080b3f9c2951d99700b3cc0462dd2bb879ef3409f2397e3e1648",
	"sip/3,2/insertion/rot-single":       "70da2edb8ed0b84ad11d7c55f4fdd7a29c7ba24a1fd418212e3bd4a0feb43c35",
	"sip/3,2/insertion/rot-pair":         "be11050981b1c5c2e54054c407b556b9943089fad2cb31f413b6531803c7fa77",
	"sip/3,2/insertion/rot-complete":     "be11050981b1c5c2e54054c407b556b9943089fad2cb31f413b6531803c7fa77",
	"sip/2,3/transposition/swap":         "eb224180b836965d35cc6f4eefc4938c514eb057dc1f61463624af7dc3996d54",
	"sip/2,3/transposition/rot-single":   "b6e23c61d5259468b4bcfda68c37ec945c7516ee431eeb3a01aa66fb1e018a1e",
	"sip/2,3/transposition/rot-pair":     "b6e23c61d5259468b4bcfda68c37ec945c7516ee431eeb3a01aa66fb1e018a1e",
	"sip/2,3/transposition/rot-complete": "b6e23c61d5259468b4bcfda68c37ec945c7516ee431eeb3a01aa66fb1e018a1e",
	"sip/2,3/insertion/swap":             "fe999cba34c1204cf062b1bfcd4f1e9ce070f8ee5b3801bd5cf20a3e590001af",
	"sip/2,3/insertion/rot-single":       "c088faad790b74c61a9c0cbcc89adec31633fa9d561e82be7b17bf54c9cd4039",
	"sip/2,3/insertion/rot-pair":         "c088faad790b74c61a9c0cbcc89adec31633fa9d561e82be7b17bf54c9cd4039",
	"sip/2,3/insertion/rot-complete":     "c088faad790b74c61a9c0cbcc89adec31633fa9d561e82be7b17bf54c9cd4039",
	"sip/4,2/transposition/swap":         "ab4fb09f0651fe9f32fcc89c0bd0f6bbc76796040bc3ae60d9154544587d4aeb",
	"sip/4,2/transposition/rot-single":   "3f4c12afda8900c4dcbb5ca1802555b7be1dd9e8e64d1bc3acf846cbeb1456ec",
	"sip/4,2/transposition/rot-pair":     "4320eaf9ae614818834c1e488ac55eb1eca416cfb6c0dd2cb9cdf7e77ea208d3",
	"sip/4,2/transposition/rot-complete": "383f44601e5523c0f32ce514e885e253ea327c6dd84e7b45e1612b08e6630579",
	"sip/4,2/insertion/swap":             "29aa03d82e133af1429a54b57b506fe7133041491c2dede5b58eb719fd39678a",
	"sip/4,2/insertion/rot-single":       "c6cece40fb9124f15dc91f397722964770dd9a447f81913f510eef383370ecb5",
	"sip/4,2/insertion/rot-pair":         "57cfeeef4ff6f1784eebe97547846803a5cb196d63b45356fa2c19067e855de4",
	"sip/4,2/insertion/rot-complete":     "cd63dac5555545e58beda9c22955563e96fb6cbe7a6137b1e5468536213fd177",
	"sip/2,4/transposition/swap":         "d58be1532ab1acda30ba7c794b98ffca1e1fa7f14f0d56e04b1694d559acae1f",
	"sip/2,4/transposition/rot-single":   "7ccd1f4d6408117ac85e52700690ce385af1e75e60fd303b1bc0cdbb41a0a0b9",
	"sip/2,4/transposition/rot-pair":     "7ccd1f4d6408117ac85e52700690ce385af1e75e60fd303b1bc0cdbb41a0a0b9",
	"sip/2,4/transposition/rot-complete": "7ccd1f4d6408117ac85e52700690ce385af1e75e60fd303b1bc0cdbb41a0a0b9",
	"sip/2,4/insertion/swap":             "966aeb27aa243a9341a698012ba889e03010c039fb9a8bdc934732b66d77246f",
	"sip/2,4/insertion/rot-single":       "c92a174a516c2182fe6c0c8dea50ad675e99605c9f1c34645fb7453c9a222268",
	"sip/2,4/insertion/rot-pair":         "c92a174a516c2182fe6c0c8dea50ad675e99605c9f1c34645fb7453c9a222268",
	"sip/2,4/insertion/rot-complete":     "c92a174a516c2182fe6c0c8dea50ad675e99605c9f1c34645fb7453c9a222268",
	"sip/3,3/transposition/swap":         "cbcf32d1c58a16ca07f83dadff489cc30d845d38d4feb33344f8923d7ed115c2",
	"sip/3,3/transposition/rot-single":   "1d5fa6d57629e80a05509dbada6eca9222bfea79536bc6e0878122f26865b833",
	"sip/3,3/transposition/rot-pair":     "9e93b8f6671f36190aae84a5709c2011a676fbf0fc0fbdde3127d92bf6c2a954",
	"sip/3,3/transposition/rot-complete": "9e93b8f6671f36190aae84a5709c2011a676fbf0fc0fbdde3127d92bf6c2a954",
	"sip/3,3/insertion/swap":             "b8ca05ced09f56118078cd72d6b6d743b22d15cb2467cf9eed141dcd8e9d8f26",
	"sip/3,3/insertion/rot-single":       "e95cfe535dc33f90447403ff9c2000801d457a8a2495ff1fdd71f2592ffb564d",
	"sip/3,3/insertion/rot-pair":         "e8208432ac6a0b0bfdb7dbfdbeca6569dd4c2b439781ab65e006644cb4da608a",
	"sip/3,3/insertion/rot-complete":     "e8208432ac6a0b0bfdb7dbfdbeca6569dd4c2b439781ab65e006644cb4da608a",
	"sip/1,1/transposition/none":         "693e5b95036f597bc51a550873e9bf565690d70ecf5abafb6b3541e4be6b9273",
	"sip/1,1/insertion/none":             "fe1737063a8cd38f69a7b94e935c29212f0e2f2e86e2fe170317f1beed6ffb67",
	"sip/1,2/transposition/none":         "ba0c34db9f1fbfa762f5355f540a9204dc5dbb6ac4b79a0af2962d54a3a1b226",
	"sip/1,2/insertion/none":             "e37dc4f19ae3defd2a11fba33552dca5fabd9f2e75f51453bcac02bd1c50dbb1",
	"sip/1,3/transposition/none":         "0187d434eb1fc75f4662bfdbd96360d9bce8a78a017813ad2f3b9dcc7757e231",
	"sip/1,3/insertion/none":             "bab6ec8b32279c1fd6754e7d9beddb18c3e282ca9832a47ee524be478eb3b33d",
	"sip/1,5/transposition/none":         "ba18fd40ae32700afa5a78ea8df1eea0f4830a97835a7aaf89284db32677b517",
	"sip/1,5/insertion/none":             "725643d106a12ffd6860e0559cce87ee149bf0a090da4209b92f9625947d458d",
	"sip/1,7/transposition/none":         "0c5589edf7a441b1a60ce9b89a123f1ee4c50317e3a6f2bc65762d130e313f01",
	"sip/1,7/insertion/none":             "d972a82dbe5f6b90c8c7e6e94b795b8a614826f4defda1dc13ae65be14dacd00",
	"star/1,1/transposition/none":        "dd4b1ece75ec558ed7e652e16f963308d6b48cd054347f334883af172e936dd8",
	"star/1,2/transposition/none":        "883eebe545a14a70473f5716c2817076683a9186ee9b2ce02ea77815c28ee136",
	"star/1,3/transposition/none":        "63e9926adf12198b43915144f835f44d26e8b5107e1243ff7ad25de1a6ba8a16",
	"star/1,4/transposition/none":        "ccbea631cf8730cb91a93112a1d4d50e5c77fd609dbe7a4b8c8b1d0cd32992c7",
	"star/1,5/transposition/none":        "5f957f3aa53ae8ac6e0d81ac43515612da7d32fff431acf36005c168fdf0714a",
	"star/1,6/transposition/none":        "9c65b9e0742048dee6cadffa0ea56be0a575e5dd201b71fa4af6bab120fffe7e",
	"star/1,7/transposition/none":        "c238268c90764f786f62a57b958493884291b8fae9e55238cc2ee42b3583d444",
	"star/1,8/transposition/none":        "1247540729aa8ed419c0880e6d8843e519dbbc75161493afea317a747518ad82",
}
