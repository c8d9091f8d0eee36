package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"
)

// analyzerGolden pins each experiment's output at seed 77: the sha256 of its
// Render() and of its exact Values (sorted keys, float bits). The digests
// were recorded from the original serial analyzer engine, which at the time
// matched the indexed concurrent engine over the full registry — so these
// pins carry that serial-vs-parallel equivalence forward without keeping a
// second engine in production.
var analyzerGolden = map[string]struct{ render, values string }{
	"table3":   {"69ff01a6f7845c1d40c78e3c521ba7250ab0810450a3eff2242af89532153658", "5187e76292aff9c5082e0d5af2ca3d9538c72fb1f3c4977a19b2a7282e6363b9"},
	"fig7":     {"bf4a8303cd45e4d79bbfd9c37c1f15ecb65e9fd57e46a38340eadfa6ec8504ff", "104a476d0ebf61243fdc72b839357895b0c1619dba11d8993e6e89ac599c3b87"},
	"fig8":     {"0ed8e50516c27cedbe05ed40eedac3cafcf51e8db5f46fcdd2191544701bd8d7", "3f89406e298b8ce7c45c720d17cd265943ab9305830f8611e0035ecb27366600"},
	"fig10":    {"6a1c3fb49b638bd493bcf188456d6242b800b82a65d6a81d5aa9dcb09e34bfdd", "1456cb2aa7918d0344794bb54f97ec9e3f770123a4e2de573d96e9de17bfaa7c"},
	"fig11":    {"d2ce5a9d26d91065eeffe7791cdc5e4554feee1bda67dd26df7527b5ecbf3e77", "4e85388370773af5acbf5c98d14cac124c6b7d1aa538aee2603b1b954c9bff37"},
	"fig12":    {"13a3430b71a53857e6e8cb61c7d62cdae4939897d132de70d19fbe6ef5ce99d6", "e393f2c7b47b5a8a4c6fb30c0373b5d15d51366def252abee9969ff5456cfbd7"},
	"fig13":    {"9a56151b919af9c16fa8787e986584b066a21872851fc3a793cd20da861c1880", "0608975029547b31a01246d0ed1ac97af255812615ac6e0ae3d556ed1c4730fe"},
	"fig14":    {"bd12afd76b6d799945b0b524d572a1ce556edab1c27816029d376a475f185ae8", "e8a937b114e28873ae92d5f79b0a4c49f787440382c255fb6ba719f7cd72c190"},
	"fig15":    {"f77565c5376c3f3a179b09dca693982af25e01b92be236f957d53674aeb8586e", "10b7c7f649bcb3c039e110045d1a3cc6d4641064db3c3f0a81a3ac0585581cb8"},
	"fig16":    {"e5b8808f3c40e8c3d4fead156c4c7c281d36db2ba4e00d4402ca063f90efee6b", "b8b57affd23327c37361c64c4440e76eacec647ab675c2657b1ec65459ff3415"},
	"fig17":    {"cc4e3a209dccf88ffe459b397629329f9f6d4e6ef0ec071b9560811c89269329", "2ef56bfde0feaddd1b3388f2534a212b72c95c9f204896ae0f0b2759b5ad91c8"},
	"fig18":    {"f5fa3a10e6a16651368ed5594e6ffc77c6c91f092659b2a477554c7bbdf46caa", "f89040a6ed328016bfaf8ade5099ca08590b71ff98f959cce142ca70dbfb99f8"},
	"fig19":    {"dad4e278a95aae2bd000bc116c746973aebbe34058fce9e82ccf98cb2b939dc5", "763726d5b7b1cc6c259c2bcf14a635849a87fc4b35964d510e3a80fdcbc426b0"},
	"fig20":    {"c9531d342c9b7f0b69f22364abb6661eeb417b553bc527ce7667507b96c2ae83", "4dea6b8abffb195e7ca72172f7a238fd36f4968371b556f83c7580980f625f21"},
	"sec7.6":   {"887d85d7980955da7c97904e8a8b3d78385799376d8cf50424d5ec013fc7acd4", "d715346c0c2c9013ec003906571030a0750abb1c70d63e0ff83ebc94b908d323"},
	"sec7.7":   {"dcf3f32057d3ae294b9bd5d87df81ab82a45dbb26a3794c0697337f61c9c68a4", "2326258b0507cb263faa345d5514abcf2bbaffae42eabd10793a44d8499c8297"},
	"faults":   {"9a7df445d114156bd7e7fe914697d8c959829f6dc5b6adb18b874642ea8ca4b1", "e85975c14c24d8d1ec9cca7b35908bc0d55d884c7893c54059b6a54f92e8c63e"},
	"fleet":    {"c2e69b5f3619a963d911bea12683b33f9480ef297fc22e3b3b8152ef75805515", "2cb9588a9fb1cab979f74e4659a39bc8e1343ff69f70abc1259758e1ab9c9c06"},
	"handover": {"ca5687d248e516be1921701a82372b5057a3c28c287f0a5c92be93023d87df98", "28e2968ceae26532758c67e97909a0b92513f0bf9f521d6e7ac82a1eec955690"},
	"remedy":   {"cbe6c44d6eccab252ebca9ffa7dd96c9a1d7cd21e60622d16db901259a804720", "02144b012b0ad21d1f08d5d677fb6164965e2c90d82b3fb5032702aca0874a41"},
}

// valuesDigest hashes the exact metric values: sorted keys with their
// float64 bit patterns, so a change below Render's 4-decimal print shows.
func valuesDigest(v map[string]float64) string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%016x\n", k, math.Float64bits(v[k]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAnalyzerEngineGolden proves the analyzer changes nothing observable:
// every experiment renders, and produces metric values, exactly as the
// original serial engine did. A fast cross-section of the registry runs by
// default; set ANALYZER_GOLDEN_FULL=1 (wired to `make analyzer-golden`) to
// sweep all of it.
func TestAnalyzerEngineGolden(t *testing.T) {
	ids := []string{"fig8", "fig12", "sec7.7"}
	if os.Getenv("ANALYZER_GOLDEN_FULL") != "" {
		ids = nil
		for _, e := range Registry() {
			ids = append(ids, e.ID)
		}
	} else if testing.Short() {
		ids = []string{"fig12"}
	}
	for _, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		t.Run(id, func(t *testing.T) {
			want, ok := analyzerGolden[id]
			if !ok {
				t.Fatalf("%s: no pinned digest", id)
			}
			r := e.Run(77, Params{})
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(r.Render()))); got != want.render {
				t.Errorf("%s: render digest %s, want %s:\n%s", id, got, want.render, r.Render())
			}
			if got := valuesDigest(r.Values); got != want.values {
				t.Errorf("%s: values digest %s, want %s", id, got, want.values)
			}
		})
	}
}
